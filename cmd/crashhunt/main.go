// Command crashhunt sweeps the crash-consistency space of the recovery
// architecture: it runs a deterministic workload against an in-memory
// oracle, enumerates every instrumented fault point the cycle hits, and
// re-runs the cycle crashing (or tearing, corrupting, failing) at
// sampled hits of each point. After every injected fault the database
// is recovered through the normal §2.5 restart path and checked:
// committed state durable, uncommitted state absent, both log-disk
// copies in agreement after repair, database still usable.
//
// Any violation is printed with the exact one-line plan that reproduces
// it; replay a plan with:
//
//	go run ./cmd/crashhunt -plan "seed=1;log.write.primary@17:crash-torn"
//
// See docs/FAULTS.md for the fault-point catalog and plan syntax.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"mmdb/internal/fault"
	"mmdb/internal/fault/sweep"
)

// writeJSON writes the report to path ("-" means stdout).
func writeJSON(path string, res *sweep.Result) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

func main() {
	var (
		seed     = flag.Int64("seed", 1, "deterministic workload seed")
		ops      = flag.Int("ops", 0, "workload transactions per cycle (0 = 400, or 120 with -short)")
		points   = flag.String("points", "all", "comma-separated fault points to sweep, or \"all\"")
		perPoint = flag.Int("per-point", 0, "sampled hit indexes per (point, action) pair (0 = 8, or 6 with -short)")
		maxPlans = flag.Int("max-plans", 0, "cap on enumerated plans (0 = no cap)")
		depth    = flag.Int("depth", 1, "plan depth: 1 = exhaustive single-rule grid, 2 = budgeted sampler over chained (fault, recovery-fault) pairs")
		budget   = flag.Int("budget", 0, "depth-2 plans drawn by the seeded sampler (0 = 200)")
		short    = flag.Bool("short", false, "small sweep sized for CI")
		planStr  = flag.String("plan", "", "replay one explicit plan instead of sweeping")
		breakDup = flag.Bool("break-duplex", false, "sabotage: disable the duplexed-read fallback, demonstrating sweep failure detection")
		loseCkpt = flag.Bool("lose-ckpt", false, "fail the checkpoint disk set after every crash and recover through media-failure recovery (§2.6)")
		verbose  = flag.Bool("v", false, "log every plan as it runs")
		jsonPath = flag.String("json", "", "write machine-readable sweep results to this path (\"-\" = stdout)")
	)
	flag.Parse()

	opts := sweep.Options{
		Seed:         *seed,
		Ops:          *ops,
		PerPoint:     *perPoint,
		MaxPlans:     *maxPlans,
		Depth:        *depth,
		Budget:       *budget,
		BreakDuplex:  *breakDup,
		LoseCkptDisk: *loseCkpt,
	}
	if *short {
		if opts.Ops == 0 {
			opts.Ops = 120
		}
		if opts.PerPoint == 0 {
			opts.PerPoint = 6
		}
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	var res *sweep.Result
	if *planStr != "" {
		plan, err := fault.ParsePlan(*planStr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashhunt: %v\n", err)
			os.Exit(2)
		}
		res = sweep.RunPlans(opts, []fault.Plan{plan})
	} else {
		sel, err := parsePoints(*points)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashhunt: %v\n", err)
			os.Exit(2)
		}
		opts.Points = sel
		if res, err = sweep.Run(opts); err != nil {
			fmt.Fprintf(os.Stderr, "crashhunt: %v\n", err)
			os.Exit(1)
		}
		pts := make([]string, 0, len(res.BaselineHits))
		for p, n := range res.BaselineHits {
			pts = append(pts, fmt.Sprintf("%s=%d", p, n))
		}
		sort.Strings(pts)
		fmt.Printf("crashhunt: seed=%d baseline hits: %s\n", res.Seed, strings.Join(pts, " "))
		fmt.Printf("crashhunt: depth=%d: %d plans run, %d rules fired, %d distinct crash points, %d mutation plans fired, %d chains completed, %d livelocks, %d violations\n",
			res.Depth, res.PlansRun, res.RulesFired, res.CrashesFired,
			res.MutationsFired, res.ChainsFired, res.Livelocks, len(res.Violations))
	}

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, res); err != nil {
			fmt.Fprintf(os.Stderr, "crashhunt: writing %s: %v\n", *jsonPath, err)
			os.Exit(2)
		}
	}
	for _, v := range res.Violations {
		fmt.Printf("VIOLATION %s\n", v)
		printTrace(&v)
	}
	if len(res.Violations) > 0 {
		os.Exit(1)
	}
	if *planStr != "" {
		fmt.Printf("crashhunt: plan %q ok (rules fired: %d)\n", res.PlanStats[0].Plan, res.PlanStats[0].Fired)
	}
}

// printTrace dumps the violation's recovered pre-crash timeline.
func printTrace(v *sweep.Violation) {
	if len(v.Trace) == 0 {
		return
	}
	fmt.Printf("  pre-crash flight recorder (%d events):\n", len(v.Trace))
	for _, line := range v.Trace {
		fmt.Printf("    %s\n", line)
	}
}

func parsePoints(s string) ([]fault.Point, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return nil, nil
	}
	known := map[fault.Point]bool{}
	for _, p := range fault.AllPoints() {
		known[p] = true
	}
	var out []fault.Point
	for _, f := range strings.Split(s, ",") {
		p := fault.Point(strings.TrimSpace(f))
		if !known[p] {
			return nil, fmt.Errorf("unknown fault point %q (see docs/FAULTS.md)", p)
		}
		out = append(out, p)
	}
	return out, nil
}
