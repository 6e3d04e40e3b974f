// Command mmdbsh is a minimal interactive shell over the mmdb public
// API, for poking at the recovery machinery by hand.
//
//	create <rel> <col:type> ...     types: int, float, string
//	index <rel> <name> <col> <ttree|hash>
//	insert <rel> <val> ...
//	get <rel> <seg.part.slot>
//	scan <rel>
//	lookup <rel> <index> <key>
//	delete <rel> <seg.part.slot>
//	stats | metrics | bins | crash | help | quit
//	trace                           print the recent event timeline
//	trace crash                     print the recovered pre-crash timeline
//	trace export <file>             write Chrome trace_event JSON
//
// Each data command runs in its own transaction. After "crash" the
// shell recovers automatically and keeps going — data written before
// the crash survives; "trace crash" then shows the flight-recorder
// timeline the crashed generation left in stable memory.
//
// With -metrics-json PATH, the shell writes an expvar-style JSON dump
// of the final metrics snapshot to PATH on exit ("-" for stdout).
//
// With -connect host:port, the shell speaks the binary wire protocol
// to a running mmdbserve instead of embedding its own database; see
// docs/NETWORK.md. "crash" then crashes and recovers the server's
// database remotely, and "metrics" shows the merged DB + server
// snapshot. Local-only commands (stats, bins, trace) are unavailable.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mmdb"
	"mmdb/internal/metrics"
)

var (
	metricsJSON = flag.String("metrics-json", "",
		"on exit, write a JSON dump of the metrics snapshot to this file ('-' for stdout)")
	connect = flag.String("connect", "",
		"host:port of a running mmdbserve; the shell speaks the wire protocol instead of embedding a database")
)

// dumpMetrics writes the snapshot as indented JSON per -metrics-json.
func dumpMetrics(db *mmdb.DB) {
	if *metricsJSON == "" {
		return
	}
	buf, err := json.MarshalIndent(db.Metrics(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "metrics dump:", err)
		return
	}
	buf = append(buf, '\n')
	if *metricsJSON == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*metricsJSON, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "metrics dump:", err)
	}
}

func main() {
	flag.Parse()
	if *connect != "" {
		os.Exit(remoteShell(*connect))
	}
	cfg := mmdb.DefaultConfig()
	// Tracing is always on in the shell: the ring is small and the
	// whole point of the tool is watching the machinery work.
	cfg.FlightRecorderBytes = 256 << 10
	db, err := mmdb.Open(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("mmdb shell — 'help' for commands")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("mmdb> ")
		if !sc.Scan() {
			break
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			dumpMetrics(db)
			_ = db.Close()
			return
		case "help":
			fmt.Println("create index insert get scan lookup delete stats metrics bins trace crash quit")
			fmt.Println("trace [crash | export <file>]")
		case "trace":
			if err := traceCmd(db, fields[1:]); err != nil {
				fmt.Println("error:", err)
			}
		case "crash":
			hw := db.Crash()
			db, err = mmdb.Recover(hw, cfg)
			if err != nil {
				fmt.Println("recovery failed:", err)
				return
			}
			fmt.Println("crashed and recovered; catalogs restored, partitions on demand")
		case "stats", "metrics":
			fmt.Print(metrics.FormatTable(db.Metrics()))
		case "bins":
			for _, b := range db.Manager().BinStates() {
				fmt.Printf("%v: %d updates, %d pages, %d buffered records, ckpt-pending=%v\n",
					b.PID, b.UpdateCount, len(b.Pages), b.CurRecords, b.CkptPending)
			}
		default:
			if err := command(db, fields); err != nil {
				fmt.Println("error:", err)
			}
		}
	}
	// EOF on stdin (piped input) ends the session like "quit".
	dumpMetrics(db)
	_ = db.Close()
}

// traceCmd implements "trace", "trace crash", and "trace export <file>".
func traceCmd(db *mmdb.DB, args []string) error {
	if len(args) == 0 {
		return printEvents(db.TraceEvents(), "no trace events (the flight ring is empty)")
	}
	switch args[0] {
	case "crash":
		return printEvents(db.CrashTrace(),
			"no recovered crash trace (no crash yet, or the crashed generation ran without a flight recorder)")
	case "export":
		if len(args) != 2 {
			return fmt.Errorf("usage: trace export <file>")
		}
		f, err := os.Create(args[1])
		if err != nil {
			return err
		}
		if err := db.ExportChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d events to %s (load in chrome://tracing or Perfetto)\n",
			len(db.TraceEvents()), args[1])
		return nil
	default:
		return fmt.Errorf("usage: trace [crash | export <file>]")
	}
}

func printEvents(events []mmdb.TraceEvent, empty string) error {
	if len(events) == 0 {
		fmt.Println(empty)
		return nil
	}
	const tail = 200
	if len(events) > tail {
		fmt.Printf("... (%d earlier events omitted)\n", len(events)-tail)
		events = events[len(events)-tail:]
	}
	for _, e := range events {
		fmt.Println(e.String())
	}
	return nil
}

func command(db *mmdb.DB, f []string) error {
	switch f[0] {
	case "create":
		if len(f) < 3 {
			return fmt.Errorf("usage: create <rel> <col:type> ...")
		}
		var schema mmdb.Schema
		for _, spec := range f[2:] {
			parts := strings.SplitN(spec, ":", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad column spec %q", spec)
			}
			var t mmdb.ColType
			switch parts[1] {
			case "int":
				t = mmdb.Int64
			case "float":
				t = mmdb.Float64
			case "string":
				t = mmdb.String
			default:
				return fmt.Errorf("bad type %q", parts[1])
			}
			schema = append(schema, mmdb.Column{Name: parts[0], Type: t})
		}
		_, err := db.CreateRelation(f[1], schema)
		return err
	case "index":
		if len(f) != 5 {
			return fmt.Errorf("usage: index <rel> <name> <col> <ttree|hash>")
		}
		rel, err := db.GetRelation(f[1])
		if err != nil {
			return err
		}
		kind := mmdb.KindTTree
		if f[4] == "hash" {
			kind = mmdb.KindLinHash
		}
		_, err = db.CreateIndex(rel, f[2], f[3], kind, 16)
		return err
	case "insert":
		rel, err := db.GetRelation(f[1])
		if err != nil {
			return err
		}
		if len(f)-2 != len(rel.Schema()) {
			return fmt.Errorf("%d values for %d columns", len(f)-2, len(rel.Schema()))
		}
		tup := make(mmdb.Tuple, len(rel.Schema()))
		for i, col := range rel.Schema() {
			switch col.Type {
			case mmdb.Int64:
				v, err := strconv.ParseInt(f[2+i], 10, 64)
				if err != nil {
					return err
				}
				tup[i] = v
			case mmdb.Float64:
				v, err := strconv.ParseFloat(f[2+i], 64)
				if err != nil {
					return err
				}
				tup[i] = v
			case mmdb.String:
				tup[i] = f[2+i]
			}
		}
		tx := db.Begin()
		id, err := tx.Insert(rel, tup)
		if err != nil {
			_ = tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		fmt.Printf("row %d.%d.%d\n", id.Segment, id.Part, id.Slot)
		return nil
	case "get", "delete":
		rel, err := db.GetRelation(f[1])
		if err != nil {
			return err
		}
		id, err := parseRow(f[2])
		if err != nil {
			return err
		}
		tx := db.Begin()
		if f[0] == "get" {
			tup, err := tx.Get(rel, id)
			_ = tx.Abort()
			if err != nil {
				return err
			}
			fmt.Println(tup)
			return nil
		}
		if err := tx.Delete(rel, id); err != nil {
			_ = tx.Abort()
			return err
		}
		return tx.Commit()
	case "scan":
		rel, err := db.GetRelation(f[1])
		if err != nil {
			return err
		}
		tx := db.Begin()
		defer tx.Abort()
		n := 0
		err = tx.Scan(rel, func(id mmdb.RowID, tup mmdb.Tuple) bool {
			fmt.Printf("%d.%d.%d\t%v\n", id.Segment, id.Part, id.Slot, tup)
			n++
			return n < 100
		})
		if n == 100 {
			fmt.Println("... (truncated at 100 rows)")
		}
		return err
	case "lookup":
		rel, err := db.GetRelation(f[1])
		if err != nil {
			return err
		}
		idx := rel.Index(f[2])
		if idx == nil {
			return fmt.Errorf("no index %q", f[2])
		}
		var key any
		col := rel.Schema()[idx.Column()]
		switch col.Type {
		case mmdb.Int64:
			v, err := strconv.ParseInt(f[3], 10, 64)
			if err != nil {
				return err
			}
			key = v
		case mmdb.Float64:
			v, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				return err
			}
			key = v
		case mmdb.String:
			key = f[3]
		}
		tx := db.Begin()
		defer tx.Abort()
		return tx.IndexLookup(idx, key, func(id mmdb.RowID, tup mmdb.Tuple) bool {
			fmt.Printf("%d.%d.%d\t%v\n", id.Segment, id.Part, id.Slot, tup)
			return true
		})
	default:
		return fmt.Errorf("unknown command %q (try help)", f[0])
	}
}

func parseRow(s string) (mmdb.RowID, error) {
	var seg, part uint32
	var slot uint16
	if _, err := fmt.Sscanf(s, "%d.%d.%d", &seg, &part, &slot); err != nil {
		return mmdb.RowID{}, fmt.Errorf("bad row id %q (want seg.part.slot)", s)
	}
	return mmdb.NewRowID(seg, part, slot), nil
}
