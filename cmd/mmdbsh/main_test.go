package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmdb"
	"mmdb/internal/metrics"
	"mmdb/internal/server"
)

// session runs script through the shell (self-served when addr is
// empty) and returns the output that answers each line, in order.
func session(t *testing.T, addr, script, metricsJSON string) []string {
	t.Helper()
	var out bytes.Buffer
	if code := run(strings.NewReader(script), &out, addr, metricsJSON); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	// The banner comes before the first prompt, and the last prompt
	// meets the end of input.
	chunks := strings.Split(out.String(), "mmdb> ")
	if want := strings.Count(script, "\n") + 2; len(chunks) != want {
		t.Fatalf("%d prompts for %d lines:\n%s", len(chunks)-2, want-2, out.String())
	}
	return chunks[1 : len(chunks)-1]
}

// testServer serves a fresh database the way mmdbserve does.
func testServer(t *testing.T) string {
	t.Helper()
	cfg := mmdb.DefaultConfig()
	db, err := mmdb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(db, cfg, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv.Addr()
}

const dataScript = `create t a:string b:int
index t by_a a hash
insert t 42 1
insert t abc 2
lookup t by_a 42
get t 2.0.0
scan t
delete t 2.0.1
crash
scan t
metrics
`

// TestSessionBothModes holds the self-served shell and the -connect
// shell to the same output for every data command, and checks that a
// committed row survives the crash.
func TestSessionBothModes(t *testing.T) {
	want := map[int]string{
		0: "", 1: "",
		2: "row 2.0.0\n",
		3: "row 2.0.1\n",
		4: "2.0.0\t[42 1]\n", // a numeric-looking key on a string column
		5: "[42 1]\n",
		6: "2.0.0\t[42 1]\n2.0.1\t[abc 2]\n",
		7: "",
		9: "2.0.0\t[42 1]\n", // the row committed before the crash
	}
	dir := t.TempDir()
	modes := map[string]string{"self-served": "", "connect": testServer(t)}
	got := map[string][]string{}
	for mode, addr := range modes {
		dump := filepath.Join(dir, mode+".json")
		out := session(t, addr, dataScript, dump)
		for i, w := range want {
			if out[i] != w {
				t.Errorf("%s: line %d answered %q, want %q", mode, i+1, out[i], w)
			}
		}
		if !strings.HasPrefix(out[8], "crashed and recovered in ") {
			t.Errorf("%s: crash answered %q", mode, out[8])
		}
		if !strings.Contains(out[10], "crash_recover_cycles") {
			t.Errorf("%s: metrics table lacks the server's crash count:\n%s", mode, out[10])
		}
		blob, err := os.ReadFile(dump)
		if err != nil {
			t.Fatalf("%s: -metrics-json: %v", mode, err)
		}
		var snap metrics.Snapshot
		if err := json.Unmarshal(blob, &snap); err != nil {
			t.Fatalf("%s: -metrics-json: %v", mode, err)
		}
		if snap.Subsystem("server").Counter("crash_recover_cycles") != 1 {
			t.Errorf("%s: dumped snapshot does not count the crash", mode)
		}
		got[mode] = out
	}
	for i := range want {
		if a, b := got["self-served"][i], got["connect"][i]; a != b {
			t.Errorf("line %d: self-served %q, connect %q", i+1, a, b)
		}
	}
}

// TestLocalCommands runs bins and trace where the shell serves itself,
// and checks they refuse under -connect.
func TestLocalCommands(t *testing.T) {
	export := filepath.Join(t.TempDir(), "trace.json")
	script := "create t a:int\ninsert t 7\nbins\ncrash\ntrace crash\ntrace export " + export + "\n"
	out := session(t, "", script, "")
	if !strings.Contains(out[2], "updates") {
		t.Errorf("bins answered %q", out[2])
	}
	if out[4] == "" || strings.HasPrefix(out[4], "no recovered crash trace") {
		t.Errorf("trace crash answered %q", out[4])
	}
	if !strings.HasPrefix(out[5], "wrote ") {
		t.Errorf("trace export answered %q", out[5])
	}
	blob, err := os.ReadFile(export)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []json.RawMessage }
	if err := json.Unmarshal(blob, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("trace export wrote %d events, err %v", len(doc.TraceEvents), err)
	}

	for i, line := range session(t, testServer(t), "bins\ntrace\ntrace crash\n", "") {
		if !strings.Contains(line, "needs local access") {
			t.Errorf("-connect line %d answered %q", i+1, line)
		}
	}
}

// TestShortInputs checks that a command missing its arguments prints a
// usage error and the session goes on.
func TestShortInputs(t *testing.T) {
	lines := []string{"create t a:int", "insert", "scan", "get t", "lookup t by_a",
		"delete t", "index t i", "create t", "insert t", "trace export"}
	out := session(t, "", strings.Join(lines, "\n")+"\n", "")
	for i, line := range lines[1:] {
		if !strings.HasPrefix(out[i+1], "error: usage: ") {
			t.Errorf("%q answered %q", line, out[i+1])
		}
	}
}
