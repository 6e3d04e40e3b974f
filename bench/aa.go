package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAA is the noise tool. For each workload it runs the same code in two
// interleaved sets (A1 B1 A2 B2 ...), every run a fresh process with another
// seed, as the acceptance check does. Per end-to-end metric it prints each
// set's median and quartiles, the spread (Q3-Q1 over the median, quartiles as
// Python's statistics.quantiles gives them), the gap between the two medians
// in the metric's worse direction, and the bound the data ask for: three
// times the widest spread or twice the gap, whichever is larger, and never
// under the floor (5 % for timings, 3 % for the two count-like metrics).
func runAA(o options, runs int) error {
	if runs < 2 {
		return fmt.Errorf("-aa needs -runs of at least 2")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	workloads := workloadNames
	if o.workload != "" {
		workloads = []string{o.workload}
	}
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < runs; i++ {
			for s := 0; s < 2; s++ {
				seed := o.seed + int64(s*runs+i)
				rep, err := childRun(self, w, seed, o)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed, err)
				}
				if !rep.Correct || rep.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", w, seed, rep.Failed, rep.Attempted)
				}
				for name, m := range rep.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "aa: %s set %c run %d/%d (seed %d) done\n", w, 'A'+s, i+1, runs, seed)
			}
		}
		defs := endToEnd
		if o.trace {
			defs = perLayer
		}
		fmt.Printf("\n%s: two sets of %d runs, seeds %d.. and %d..\n", w, runs, o.seed, o.seed+int64(runs))
		fmt.Printf("%-30s %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %7s\n",
			"metric", "A median", "A q1", "A q3", "spread", "B median", "B q1", "B q3", "spread", "gap", "bound")
		for _, d := range defs {
			var med, spread [2]float64
			var cells []string
			for s := 0; s < 2; s++ {
				q1, q2, q3 := quartiles(sets[s][d.Name])
				med[s] = q2
				if q2 != 0 {
					spread[s] = (q3 - q1) / abs(q2)
				}
				cells = append(cells, fmt.Sprintf("%12.4f %12.4f %12.4f %6.2f%%", q2, q1, q3, 100*spread[s]))
			}
			gap := 0.0
			if med[0] != 0 {
				gap = (med[1] - med[0]) / abs(med[0])
				if d.Better == "higher" {
					gap = -gap
				}
			}
			floor := 0.05
			if d.Name == "disk_bytes_per_txn" || d.Name == "heap_live_mb" {
				floor = 0.03
			}
			bound := floor
			for _, need := range []float64{3 * spread[0], 3 * spread[1], 2 * abs(gap)} {
				if need > bound {
					bound = need
				}
			}
			fmt.Printf("%-30s %s | %s | %+6.2f%% %6.2f%%\n", d.Name, cells[0], cells[1], 100*gap, 100*bound)
		}
	}
	return nil
}

// childRun runs one workload in a fresh process and parses its result line.
func childRun(self, workload string, seed int64, o options) (*report, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &rep, nil
}
