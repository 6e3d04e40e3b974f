package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mmdb"
)

var traceOut = flag.String("trace-out", "trace.json", "Chrome trace_event output path for the trace command")

// traceReport runs the crash cycle with the stable-memory flight
// recorder enabled and exports two Chrome trace_event JSON files
// loadable in chrome://tracing or Perfetto:
//
//   - <trace-out>: the recovered instance's live timeline (restart
//     phases, per-partition redo, post-crash transactions);
//   - <trace-out base>-crash.json: the pre-crash flight-recorder
//     timeline recovered from stable memory, ending with the
//     crash-trigger event.
func traceReport() error {
	preEvents := 0
	db2, count, err := crashCycle("trace workload payload", 64<<10, func(db *mmdb.DB) {
		preEvents = len(db.TraceEvents())
	})
	if err != nil {
		return err
	}
	defer db2.Close()

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
