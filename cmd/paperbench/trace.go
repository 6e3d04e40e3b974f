package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"mmdb"
)

var traceOut = flag.String("trace-out", "trace.json", "Chrome trace_event output path for the trace command")

// traceReport runs the metrics workload with structured tracing and the
// stable-memory flight recorder enabled, crashes the instance, recovers
// it, and exports two Chrome trace_event JSON files loadable in
// chrome://tracing or Perfetto:
//
//   - <trace-out>: the recovered instance's live timeline (restart
//     phases, per-partition redo, post-crash transactions);
//   - <trace-out base>-crash.json: the pre-crash flight-recorder
//     timeline recovered from stable memory, ending with the
//     crash-trigger event.
func traceReport() error {
	cfg := mmdb.DefaultConfig()
	cfg.LogPageSize = 2 << 10
	cfg.UpdateThreshold = 150
	cfg.LogWindowPages = 64
	cfg.GracePages = 8
	cfg.FlightRecorderBytes = 64 << 10
	db, err := mmdb.Open(cfg)
	if err != nil {
		return err
	}
	rel, err := db.CreateRelation("bench", mmdb.Schema{
		{Name: "k", Type: mmdb.Int64},
		{Name: "v", Type: mmdb.String},
	})
	if err != nil {
		return err
	}
	rows := make([]mmdb.RowID, 0, 800)
	for batch := 0; batch < n(8); batch++ {
		tx := db.Begin()
		for i := 0; i < 100; i++ {
			row, err := tx.Insert(rel, mmdb.Tuple{int64(batch*100 + i), "trace workload payload"})
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	for round := 0; round < n(6); round++ {
		tx := db.Begin()
		for i := 0; i < 200; i++ {
			if err := tx.Update(rel, rows[i%len(rows)], map[string]any{"k": int64(round*1000 + i)}); err != nil {
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	db.WaitIdle()
	preEvents := len(db.TraceEvents())

	hw := db.Crash()
	db2, err := mmdb.Recover(hw, cfg)
	if err != nil {
		return err
	}
	defer db2.Close()
	rel2, err := db2.GetRelation("bench")
	if err != nil {
		return err
	}
	tx := db2.Begin()
	count, err := tx.Count(rel2) // demands every partition through §2.5 recovery
	if err != nil {
		return err
	}
	if err := tx.Abort(); err != nil {
		log.Printf("paperbench trace: abort: %v", err)
	}
	db2.WaitIdle()

	if err := writeTraceFile(*traceOut, db2.ExportChromeTrace); err != nil {
		return err
	}
	crashOut := crashTracePath(*traceOut)
	if err := writeTraceFile(crashOut, db2.ExportCrashChromeTrace); err != nil {
		return err
	}
	fmt.Println("Trace — structured event timeline across a crash/recovery cycle")
	fmt.Printf("  pre-crash events emitted     %8d\n", preEvents)
	fmt.Printf("  flight recorder recovered    %8d events -> %s\n", len(db2.CrashTrace()), crashOut)
	fmt.Printf("  recovered-instance timeline  %8d events -> %s (%d rows intact)\n",
		len(db2.TraceEvents()), *traceOut, count)
	fmt.Println("  load either file in chrome://tracing or https://ui.perfetto.dev")
	return nil
}

// crashTracePath derives "<base>-crash.json" from the main output path.
func crashTracePath(out string) string {
	ext := filepath.Ext(out)
	return strings.TrimSuffix(out, ext) + "-crash" + ext
}

func writeTraceFile(path string, export func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
