// Command bench is the repository's benchmark: four round+crash workloads
// over the mmdb engine, seven end-to-end metrics and the per-layer numbers
// that explain them. See README.md in this directory.
//
//	bash bench/run.sh --workload dc_inproc --seed 1 --seconds 18 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics of a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var o options
	var trace int
	var aa bool
	var aaRuns int
	flag.StringVar(&o.workload, "workload", "", "one of dc_inproc, dc_wire, read_mix, update_crash")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated operation stream")
	flag.Float64Var(&o.seconds, "seconds", 18, "length of the measured cycle loop")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "test sizes: one cycle over a small data set")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1: write the spans to this file, one JSON object per line")
	flag.BoolVar(&aa, "aa", false, "noise tool: run every workload (or -workload) in two interleaved sets and derive bounds")
	flag.IntVar(&aaRuns, "runs", 10, "with -aa: runs per set")
	flag.Parse()
	if flag.NArg() > 0 || trace < 0 || trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1

	if aa {
		if err := runAA(o, aaRuns); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printReport(rep)
}

// printReport writes the notes and a table for people, then the one-line
// result the driver reads.
func printReport(rep *report) {
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("# %-34s %16.4f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
