// Command paperbench regenerates every table and figure of Lehman &
// Carey (SIGMOD 1987) §3, printing the paper's analytic values next to
// values measured from the simulator's real code paths.
//
// Usage:
//
//	paperbench table2           Table 2 parameter derivations
//	paperbench graph1           Graph 1: logging capacity (records/s)
//	paperbench graph2           Graph 2: max transaction rate
//	paperbench graph3           Graph 3: checkpoint frequency
//	paperbench recovery         §3.4.1: partition- vs database-level recovery
//	paperbench restart          R3: sweep scaling; R5: heat-ordered ttp99-restored
//	paperbench predeclare       R2: §2.5's predeclare-vs-on-demand question
//	paperbench metrics          measured latency histograms from a real DB run
//	paperbench trace            Chrome trace_event export of a crash/recovery cycle
//	paperbench all              everything above
package main

import (
	"flag"
	"fmt"
	"os"

	"mmdb/internal/experiments"
	"mmdb/internal/model"
)

var quick = flag.Bool("quick", false, "smaller record counts for the host-time subcommands (metrics, trace)")

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cmds := map[string]func() error{
		"table2":     table2,
		"graph1":     graph1,
		"graph2":     graph2,
		"graph3":     graph3,
		"recovery":   recovery,
		"restart":    restart,
		"predeclare": predeclare,
		"metrics":    metricsReport,
		"trace":      traceReport,
	}
	run := func(name string) {
		fn, ok := cmds[name]
		if !ok {
			usage()
			os.Exit(2)
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if args[0] == "all" {
		for _, name := range []string{"table2", "graph1", "graph2", "graph3", "recovery",
			"restart", "predeclare", "metrics", "trace"} {
			run(name)
			fmt.Println()
		}
		return
	}
	for _, name := range args {
		run(name)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: paperbench [-quick] [-trace-out FILE] {table2|graph1|graph2|graph3|recovery|restart|predeclare|metrics|trace|all}")
}

// n shrinks a host-time subcommand's record count under -quick. The
// simulated subcommands always run at full size: each takes well under a
// second, and their rows are the ones the capture pins.
func n(full int) int {
	if *quick {
		return full / 5
	}
	return full
}

func table2() error {
	p := model.PaperParams()
	fmt.Println("Table 2 — parameters and derived quantities (paper values)")
	fmt.Printf("  I_record_sort           %8.2f instructions/record\n", p.IRecordSort())
	fmt.Printf("  I_page_write            %8.2f instructions/record (amortised)\n", p.IPageWrite())
	fmt.Printf("  R_bytes_logged          %8.0f bytes/second\n", p.RBytesLogged())
	fmt.Printf("  R_records_logged        %8.0f records/second\n", p.RRecordsLogged())
	fmt.Printf("  max debit/credit rate   %8.0f txn/second (4 records/txn; paper: ~4,000)\n", p.MaxTransactionRate(4))
	fmt.Printf("  ckpt frequency (best)   %8.2f /s at 10k records/s\n", p.CheckpointRateBest(10000))
	fmt.Printf("  ckpt frequency (worst)  %8.2f /s at 10k records/s\n", p.CheckpointRateWorst(10000))
	fmt.Printf("  ckpt txn share          %8.2f %% (60%% by count, 10 rec/txn; paper: ~1.5%%)\n",
		100*p.CheckpointTxnFraction(10000, 0.6, 0.4, 10))
	fmt.Printf("  min log window          %8d pages for 100 active partitions\n", p.MinLogWindowPages(100))
	return nil
}

func graph1() error {
	series, err := experiments.Graph1(nil, nil, 20000)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatSeries(
		"Graph 1 — logging capacity of the recovery component",
		"rec size B", "log records / second", series))
	return nil
}

func graph2() error {
	series, err := experiments.Graph2(nil, nil, 20000)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatSeries(
		"Graph 2 — logging capacity in transactions per second",
		"rec size B", "transactions / second", series))
	return nil
}

func graph3() error {
	series, err := experiments.Graph3(nil, nil, 30000)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatSeries(
		"Graph 3 — checkpoint frequency vs logging rate",
		"records/s", "checkpoints / second", series))
	return nil
}

func recovery() error {
	fmt.Println("§3.4.1 — post-crash recovery: partition-level vs database-level")
	fmt.Printf("  %8s %6s  %18s %18s %18s %10s\n",
		"parts", "hot", "part-first-txn us", "part-full us", "db-first-txn us", "speedup")
	for _, parts := range []int{16, 32, 64, 128, 256} {
		res, err := experiments.RecoveryComparison(parts, 4, 40)
		if err != nil {
			return err
		}
		fmt.Printf("  %8d %6d  %18d %18d %18d %9.1fx\n",
			res.Partitions, res.HotPartitions, res.PartLevelFirstUS,
			res.PartLevelFullUS, res.DBLevelFirstUS, res.SpeedupFirstTxn)
	}
	fmt.Println("  (first-txn = simulated disk time until transactions can run)")
	return nil
}

func restart() error {
	fmt.Println("R3 — background-sweep completion time vs recovery workers (§2.5)")
	fmt.Printf("  %8s %8s  %14s %14s %10s %8s\n",
		"parts", "workers", "sweep ms (sim)", "parts/s (sim)", "host ms", "errors")
	pts, err := experiments.SweepScaling(nil, nil, 600)
	if err != nil {
		return err
	}
	last := -1
	for _, p := range pts {
		if p.Partitions != last && last != -1 {
			fmt.Println()
		}
		last = p.Partitions
		fmt.Printf("  %8d %8d  %14.2f %14.0f %10.2f %8d\n",
			p.Partitions, p.Workers, p.SweepMS, p.PartsPerSec, p.HostMS, p.Errors)
	}
	fmt.Println("  (sim = charged disk+CPU cost on the most-loaded worker's critical path;")
	fmt.Println("   the sweep fans out over Config.RecoveryWorkers, coalescing with on-demand")
	fmt.Println("   recovery, so first-txn latency stays size-independent while full restore")
	fmt.Println("   scales with cores)")
	fmt.Println()
	fmt.Println("R5 — time-to-p99-restored: heat-ordered vs catalog-order sweep")
	fmt.Printf("  %8s %4s %8s  %14s %14s %8s %14s\n",
		"parts", "hot", "workers", "heat ttp99 ms", "catalog ms", "speedup", "full sweep ms")
	hpts, err := experiments.HeatOrderingTTP99(128, 16, nil, 400)
	if err != nil {
		return err
	}
	for _, p := range hpts {
		fmt.Printf("  %8d %4d %8d  %14.2f %14.2f %7.1fx %14.2f\n",
			p.Partitions, p.HotParts, p.Workers,
			p.OrderedTTP99MS, p.CatalogTTP99MS, p.Speedup, p.FullSweepMS)
	}
	fmt.Println("  (ttp99 = simulated cost until partitions holding 99% of the pre-crash")
	fmt.Println("   heat weight are resident; the crash-surviving heat snapshot lets the")
	fmt.Println("   sweep front-load the working set, so the hot 99% returns long before")
	fmt.Println("   the full sweep finishes — the full makespan is ordering-independent)")
	return nil
}

func predeclare() error {
	fmt.Println("R2 — §2.5's open question: predeclared vs on-demand recovery")
	fmt.Printf("  %8s %6s  %16s %14s %12s %12s %14s\n",
		"parts", "hot", "predeclare us", "demand 1st us", "demand p50", "demand max", "demand total")
	for _, parts := range []int{32, 128, 256} {
		res, err := experiments.PredeclareVsDemand(parts, 8, 250, 24)
		if err != nil {
			return err
		}
		fmt.Printf("  %8d %6d  %16d %14d %12d %12d %14d\n",
			res.Partitions, res.HotParts, res.PredeclareFirstUS,
			res.DemandFirstUS, res.DemandP50US, res.DemandMaxUS, res.DemandTotalUS)
	}
	fmt.Println("  (per-transaction simulated disk latency; predeclare = method 1, demand = method 2)")
	return nil
}
