// Command mmdbsh is a minimal interactive shell over the mmdb wire
// protocol, for poking at the recovery machinery by hand.
//
//	create <rel> <col:type> ...     types: int, float, string
//	index <rel> <name> <col> <ttree|hash>
//	insert <rel> <val> ...
//	get <rel> <seg.part.slot>
//	scan <rel>
//	lookup <rel> <index> <key>
//	delete <rel> <seg.part.slot>
//	stats | metrics | bins | crash | ping | help | quit
//	trace                           print the recent event timeline
//	trace crash                     print the recovered pre-crash timeline
//	trace export <file>             write Chrome trace_event JSON
//
// The shell is always a client of an mmdb server (internal/server,
// docs/NETWORK.md). Without -connect it serves itself: it opens a
// database, boots a server over it on loopback and connects to that.
// With -connect host:port it talks to a running mmdbserve instead.
// Either way every command runs through one dispatcher: each data
// command is one request (one transaction on the server), "crash" is
// the server's crash+recover (data written before the crash survives),
// and "metrics" shows the merged DB + server snapshot.
//
// bins and trace read the database's process directly, so they work
// only when the shell serves itself; there tracing is always on, and
// "trace crash" shows the flight-recorder timeline the crashed
// generation left in stable memory.
//
// With -metrics-json PATH, the shell writes a JSON dump of the final
// metrics snapshot (the one "metrics" shows) to PATH on exit ("-" for
// stdout).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mmdb"
	"mmdb/internal/metrics"
	"mmdb/internal/server"
	"mmdb/internal/server/client"
	"mmdb/internal/server/proto"
)

var (
	metricsJSON = flag.String("metrics-json", "",
		"on exit, write a JSON dump of the metrics snapshot to this file ('-' for stdout)")
	connect = flag.String("connect", "",
		"host:port of a running mmdbserve; without it the shell serves its own database on loopback")
)

func main() {
	flag.Parse()
	os.Exit(run(os.Stdin, os.Stdout, *connect, *metricsJSON))
}

// shell is one session: the connection every command goes through, and
// the server when the shell serves itself (nil under -connect).
type shell struct {
	c   *client.Conn
	srv *server.Server
	out io.Writer
}

// run reads commands from in until quit or end of input, writing to
// out. With addr empty it serves its own database; it returns the exit
// status.
func run(in io.Reader, out io.Writer, addr, metricsJSON string) int {
	sh := &shell{out: out}
	if addr == "" {
		cfg := mmdb.DefaultConfig()
		// Tracing is always on in the shell: the ring is small and the
		// whole point of the tool is watching the machinery work.
		cfg.FlightRecorderBytes = 256 << 10
		db, err := mmdb.Open(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if sh.srv, err = server.New(db, cfg, server.Config{}); err != nil {
			_ = db.Close()
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer sh.srv.Close()
		addr = sh.srv.Addr()
	}
	var err error
	if sh.c, err = client.Dial(addr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer sh.c.Close()
	if err := sh.c.Ping(); err != nil {
		fmt.Fprintln(os.Stderr, "ping:", err)
		return 1
	}
	fmt.Fprintf(out, "mmdb shell — connected to %s — 'help' for commands\n", addr)
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "mmdb> ")
		if !sc.Scan() {
			break // end of input ends the session like "quit"
		}
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		if f[0] == "quit" || f[0] == "exit" {
			break
		}
		if err := sh.command(f); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	}
	sh.dumpMetrics(metricsJSON)
	return 0
}

// dumpMetrics writes the snapshot "metrics" shows as indented JSON to
// path ("-" for the shell's output).
func (sh *shell) dumpMetrics(path string) {
	if path == "" {
		return
	}
	blob, err := sh.c.Metrics()
	var buf bytes.Buffer
	if err == nil {
		err = json.Indent(&buf, blob, "", "  ")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "metrics dump:", err)
		return
	}
	buf.WriteByte('\n')
	if path == "-" {
		sh.out.Write(buf.Bytes())
		return
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "metrics dump:", err)
	}
}

// colTypes maps the shell's column type names to the catalog's.
var colTypes = map[string]mmdb.ColType{"int": mmdb.Int64, "float": mmdb.Float64, "string": mmdb.String}

// command runs one shell command.
func (sh *shell) command(f []string) error {
	c, out := sh.c, sh.out
	switch f[0] {
	case "help":
		fmt.Fprintln(out, "create index insert get scan lookup delete metrics crash ping bins trace quit")
		fmt.Fprintln(out, "trace [crash | export <file>]; bins and trace need the self-served shell (no -connect)")
		return nil
	case "trace", "bins":
		if sh.srv == nil {
			return fmt.Errorf("%s needs local access — run mmdbsh without -connect", f[0])
		}
		if f[0] == "trace" {
			return sh.trace(f[1:])
		}
		// The recovery CPU sorts a commit into its bin after the commit
		// returns: wait for it, so bins shows every committed record.
		db := sh.srv.DB()
		db.WaitIdle()
		for _, b := range db.Manager().BinStates() {
			fmt.Fprintf(out, "%v: %d updates, %d pages, %d buffered records, ckpt-pending=%v\n",
				b.PID, b.UpdateCount, len(b.Pages), b.CurRecords, b.CkptPending)
		}
		return nil
	case "ping":
		if err := c.Ping(); err != nil {
			return err
		}
		fmt.Fprintln(out, "pong")
		return nil
	case "crash":
		dur, err := c.Crash()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "crashed and recovered in %v; catalogs restored, partitions on demand\n", dur)
		return nil
	case "stats", "metrics":
		blob, err := c.Metrics()
		if err != nil {
			return err
		}
		var snap metrics.Snapshot
		if err := json.Unmarshal(blob, &snap); err != nil {
			return err
		}
		fmt.Fprint(out, metrics.FormatTable(snap))
		return nil
	case "create":
		if len(f) < 3 {
			return fmt.Errorf("usage: create <rel> <col:type> ...")
		}
		var cols []proto.Col
		for _, spec := range f[2:] {
			name, typ, _ := strings.Cut(spec, ":")
			t, ok := colTypes[typ]
			if !ok {
				return fmt.Errorf("bad column spec %q (want name:int|float|string)", spec)
			}
			cols = append(cols, proto.Col{Name: name, Type: byte(t)})
		}
		return c.CreateRelation(f[1], cols)
	case "index":
		if len(f) != 5 {
			return fmt.Errorf("usage: index <rel> <name> <col> <ttree|hash>")
		}
		kind := mmdb.KindTTree
		if f[4] == "hash" {
			kind = mmdb.KindLinHash
		}
		return c.CreateIndex(f[1], f[2], f[3], byte(kind), 16)
	case "insert":
		if len(f) < 3 {
			return fmt.Errorf("usage: insert <rel> <val> ...")
		}
		schema, err := c.Schema(f[1])
		if err != nil {
			return err
		}
		if len(f)-2 != len(schema) {
			return fmt.Errorf("%d values for %d columns", len(f)-2, len(schema))
		}
		vals := make([]any, len(schema))
		for i, col := range schema {
			if vals[i], err = parseVal(mmdb.ColType(col.Type), f[2+i]); err != nil {
				return err
			}
		}
		row, err := c.Insert(f[1], vals)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "row %d.%d.%d\n", row.Seg, row.Part, row.Slot)
		return nil
	case "get", "delete":
		if len(f) != 3 {
			return fmt.Errorf("usage: %s <rel> <seg.part.slot>", f[0])
		}
		row, err := parseRow(f[2])
		if err != nil {
			return err
		}
		if f[0] == "delete" {
			return c.Delete(f[1], row)
		}
		tup, err := c.Get(f[1], row)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, tup)
		return nil
	case "scan":
		if len(f) != 2 {
			return fmt.Errorf("usage: scan <rel>")
		}
		rows, err := c.Scan(f[1], 100)
		if err != nil {
			return err
		}
		sh.printRows(rows)
		if len(rows) == 100 {
			fmt.Fprintln(out, "... (truncated at 100 rows)")
		}
		return nil
	case "lookup":
		if len(f) != 4 {
			return fmt.Errorf("usage: lookup <rel> <index> <key>")
		}
		// The shell does not know the index's column type, so it sends
		// the key as an int, then a float, then a string, moving on only
		// while the server rejects the key's type.
		var rows []proto.RowTuple
		var err error
		for _, key := range keyForms(f[3]) {
			rows, err = c.Lookup(f[1], f[2], key)
			if !client.HasStatus(err, proto.StatusError) {
				break
			}
		}
		if err != nil {
			return err
		}
		sh.printRows(rows)
		return nil
	}
	return fmt.Errorf("unknown command %q (try help)", f[0])
}

func (sh *shell) printRows(rows []proto.RowTuple) {
	for _, r := range rows {
		fmt.Fprintf(sh.out, "%d.%d.%d\t%v\n", r.Addr.Seg, r.Addr.Part, r.Addr.Slot, r.Tuple)
	}
}

// keyForms lists the typed readings of a lookup key: int, float, string.
func keyForms(s string) []any {
	var keys []any
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		keys = append(keys, v)
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		keys = append(keys, v)
	}
	return append(keys, s)
}

// parseVal converts a shell token per the column type.
func parseVal(t mmdb.ColType, s string) (any, error) {
	switch t {
	case mmdb.Int64:
		return strconv.ParseInt(s, 10, 64)
	case mmdb.Float64:
		return strconv.ParseFloat(s, 64)
	}
	return s, nil
}

// parseRow parses seg.part.slot into a wire row address.
func parseRow(s string) (proto.Row, error) {
	var r proto.Row
	if _, err := fmt.Sscanf(s, "%d.%d.%d", &r.Seg, &r.Part, &r.Slot); err != nil {
		return proto.Row{}, fmt.Errorf("bad row id %q (want seg.part.slot)", s)
	}
	return r, nil
}

// trace implements "trace", "trace crash" and "trace export <file>"
// against the served database.
func (sh *shell) trace(args []string) error {
	db := sh.srv.DB()
	if len(args) == 0 {
		sh.printEvents(db.TraceEvents(), "no trace events (the flight ring is empty)")
		return nil
	}
	switch args[0] {
	case "crash":
		sh.printEvents(db.CrashTrace(),
			"no recovered crash trace (no crash yet, or the crashed generation ran without a flight recorder)")
		return nil
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
		fmt.Fprintf(sh.out, "wrote %d events to %s (load in chrome://tracing or Perfetto)\n",
			len(db.TraceEvents()), args[1])
		return nil
	}
	return fmt.Errorf("usage: trace [crash | export <file>]")
}

func (sh *shell) printEvents(events []mmdb.TraceEvent, empty string) {
	if len(events) == 0 {
		fmt.Fprintln(sh.out, empty)
		return
	}
	const tail = 200
	if len(events) > tail {
		fmt.Fprintf(sh.out, "... (%d earlier events omitted)\n", len(events)-tail)
		events = events[len(events)-tail:]
	}
	for _, e := range events {
		fmt.Fprintln(sh.out, e.String())
	}
}
