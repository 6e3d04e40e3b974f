package mmdb

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"mmdb/internal/fault"
	"mmdb/internal/heap"
	"mmdb/internal/simdisk"
	"mmdb/internal/trace"
)

// traceConfig is testConfig with tracing on.
func traceConfig() Config {
	cfg := testConfig()
	cfg.FlightRecorderBytes = 32 << 10
	return cfg
}

func traceWorkload(t *testing.T, db *DB, txns int) {
	t.Helper()
	rel, err := db.CreateRelation("traced", acctSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < txns; i++ {
		tx := db.Begin()
		if _, err := tx.Insert(rel, heap.Tuple{int64(i), float64(i), "flight-recorder payload"}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
}

func kinds(events []TraceEvent) map[trace.Kind]int {
	out := map[trace.Kind]int{}
	for _, e := range events {
		out[e.Kind]++
	}
	return out
}

// TestFlightRecorderSurvivesForcedCrash is the tentpole contract: the
// stable-memory flight ring written before a crash is readable after
// recovery, in order, ending with the crash trigger event.
func TestFlightRecorderSurvivesForcedCrash(t *testing.T) {
	cfg := traceConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traceWorkload(t, db, 30)
	db.WaitIdle()
	if n := len(db.TraceEvents()); n == 0 {
		t.Fatal("no trace events after a traced workload")
	}

	db2 := crashAndRecover(t, db, cfg)
	defer db2.Close()
	ct := db2.CrashTrace()
	if len(ct) == 0 {
		t.Fatal("flight recorder came back empty after the crash")
	}
	k := kinds(ct)
	if k[trace.KindTxnCommit] == 0 || k[trace.KindSLBAppend] == 0 {
		t.Fatalf("crash trace misses workload events: %v", k)
	}
	last := ct[len(ct)-1]
	if last.Kind != trace.KindFaultTrigger || last.Str != "crash.forced" {
		t.Fatalf("crash trace ends with %+v, want the crash.forced trigger", last)
	}
	// Sequence numbers are strictly increasing: the window is in order.
	for i := 1; i < len(ct); i++ {
		if ct[i].Seq <= ct[i-1].Seq {
			t.Fatalf("crash trace out of order at %d: seq %d -> %d", i, ct[i-1].Seq, ct[i].Seq)
		}
	}
	// A second crash replaces the timeline rather than appending.
	db3 := crashAndRecover(t, db2, cfg)
	defer db3.Close()
	ct2 := db3.CrashTrace()
	if len(ct2) == 0 {
		t.Fatal("second-generation crash trace empty")
	}
	if got := kinds(ct2)[trace.KindRootScanBegin]; got == 0 {
		t.Fatalf("second crash trace lacks the restart root scan of generation 2: %v", kinds(ct2))
	}
}

// TestCrashMidCheckpointFlightRecorder crashes the machine between the
// checkpoint image write and its commit; the recovered timeline must
// show the checkpoint transaction cut short — a begin (and the track
// write) without the matching end — and the injected trigger last.
func TestCrashMidCheckpointFlightRecorder(t *testing.T) {
	cfg := traceConfig()
	cfg.UpdateThreshold = 8 // checkpoint early
	inj := fault.NewInjector(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Point: fault.PointCkptAfterImage, Hit: 1, Act: fault.ActCrashBefore, Torn: -1},
	}})
	cfg.FaultInjector = inj
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("traced", acctSchema)
	if err != nil {
		t.Fatal(err)
	}
	// Update churn until a checkpoint is triggered, then nothing until the
	// rule crashes the machine inside it: churn that kept going would, at
	// a high enough transaction rate, push the checkpoint's begin event
	// out of the flight ring before the crash. Injected failures are
	// expected once the crash lands.
	triggered := func() bool {
		return counter(db, "checkpoint", "triggered_by_update_count")+counter(db, "checkpoint", "triggered_by_age") > 0
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; !inj.Crashed(); i++ {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint fault never fired")
		}
		if triggered() {
			runtime.Gosched()
			continue
		}
		tx := db.Begin()
		_, err := tx.Insert(rel, heap.Tuple{int64(i), float64(i), "churn"})
		if err == nil {
			err = tx.Commit()
		} else {
			_ = tx.Abort()
		}
		if err != nil && !fault.IsFault(err) {
			t.Fatal(err)
		}
	}

	db2 := crashAndRecover(t, db, cfg)
	defer db2.Close()
	ct := db2.CrashTrace()
	if len(ct) == 0 {
		t.Fatal("flight recorder empty after mid-checkpoint crash")
	}
	last := ct[len(ct)-1]
	if last.Kind != trace.KindFaultTrigger || last.Str != "ckpt.after-image:crash" {
		t.Fatalf("final crash-trace event = %+v, want the ckpt.after-image trigger", last)
	}
	k := kinds(ct)
	if k[trace.KindCkptBegin] == 0 {
		t.Fatalf("crash trace lacks the interrupted checkpoint's begin event: %v", k)
	}
	// The interrupted checkpoint transaction must have no end event.
	open := map[uint64]bool{}
	for _, e := range ct {
		switch e.Kind {
		case trace.KindCkptBegin:
			open[e.Txn] = true
		case trace.KindCkptEnd, trace.KindCkptFail:
			delete(open, e.Txn)
		}
	}
	if len(open) == 0 {
		t.Fatal("every checkpoint in the crash trace completed; expected the crash to cut one short")
	}
}

// TestCrashMidRestartFlightRecorder crashes recovery itself: the first
// checkpoint-disk read of the restart root scan halts the machine, and
// the next power cycle's crash trace must show the interrupted restart.
func TestCrashMidRestartFlightRecorder(t *testing.T) {
	cfg := traceConfig()
	cfg.UpdateThreshold = 2 // checkpoint the catalogs quickly
	inj := fault.NewInjector(fault.Plan{Seed: 1, Rules: []fault.Rule{
		// ckpt.read is never hit while the system runs forward — the
		// first hit is the catalog restore inside Restart.
		{Point: fault.PointCkptRead, Hit: 1, Act: fault.ActCrashBefore, Torn: -1},
	}})
	cfg.FaultInjector = inj
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traceWorkload(t, db, 40)
	db.WaitIdle()
	root := db.Manager().RootCopy()
	if len(root.RelCatParts) == 0 || root.RelCatParts[0].Track == simdisk.NilTrack {
		t.Fatal("catalog partition never checkpointed; the restart would not read the checkpoint disk")
	}

	hw := db.Crash()
	inj.ClearCrash()
	if _, err := Recover(hw, cfg); !fault.IsFault(err) {
		t.Fatalf("Recover survived the injected restart crash: err=%v", err)
	}
	inj.ClearCrash()
	db2, err := Recover(hw, cfg) // rule consumed: this power cycle converges
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	ct := db2.CrashTrace()
	if len(ct) == 0 {
		t.Fatal("flight recorder empty after mid-restart crash")
	}
	k := kinds(ct)
	if k[trace.KindRootScanBegin] == 0 {
		t.Fatalf("crash trace lacks the interrupted restart's root scan: %v", k)
	}
	if k[trace.KindRootScanEnd] != 0 {
		t.Fatalf("interrupted root scan has an end event in the stable ring: %v", k)
	}
	last := ct[len(ct)-1]
	if last.Kind != trace.KindFaultTrigger || last.Str != "ckpt.read:crash" {
		t.Fatalf("final crash-trace event = %+v, want the ckpt.read trigger", last)
	}
}

// TestExportChromeTrace checks the end-to-end JSON export against a
// real crash/recovery cycle.
func TestExportChromeTrace(t *testing.T) {
	cfg := traceConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traceWorkload(t, db, 20)
	db.WaitIdle()
	db2 := crashAndRecover(t, db, cfg)
	defer db2.Close()

	var live, crash bytes.Buffer
	if err := db2.ExportChromeTrace(&live); err != nil {
		t.Fatal(err)
	}
	if err := db2.ExportCrashChromeTrace(&crash); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"live": &live, "crash": &crash} {
		var parsed struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
			t.Fatalf("%s export is not valid JSON: %v", name, err)
		}
		if len(parsed.TraceEvents) == 0 {
			t.Fatalf("%s export has no events", name)
		}
	}
}

// TestResetMetrics aligns a measurement window: counters accumulated by
// a workload are zeroed, and new work is counted from zero.
func TestResetMetrics(t *testing.T) {
	cfg := traceConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	traceWorkload(t, db, 10)
	db.WaitIdle()
	if got := db.Metrics().Subsystem("txn").Counter("commits"); got == 0 {
		t.Fatal("workload committed nothing")
	}
	db.ResetMetrics()
	if got := db.Metrics().Subsystem("txn").Counter("commits"); got != 0 {
		t.Fatalf("commits = %d after ResetMetrics, want 0", got)
	}
	tx := db.Begin()
	rel, err := db.GetRelation("traced")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(rel, heap.Tuple{int64(999), 1.0, "post-reset"}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if got := db.Metrics().Subsystem("txn").Counter("commits"); got != 1 {
		t.Fatalf("commits = %d after one post-reset commit, want 1", got)
	}
}

// benchCommit measures the commit path with tracing on or off; the off
// case must stay within noise of the pre-trace baseline (one nil check
// per event site).
func benchCommit(b *testing.B, cfg Config) {
	db, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	rel, err := db.CreateRelation("bench", acctSchema)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := tx.Insert(rel, heap.Tuple{int64(i), float64(i), "bench payload"}); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCommitTracingOff(b *testing.B) { benchCommit(b, testConfig()) }

func BenchmarkCommitTracingOn(b *testing.B) {
	cfg := testConfig()
	cfg.FlightRecorderBytes = 64 << 10
	benchCommit(b, cfg)
}
