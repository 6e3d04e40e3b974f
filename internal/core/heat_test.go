package core

// Heat-aware recovery: the crash-surviving partition-heat snapshot must
// come back after an injected crash, the background sweep must recover
// partitions hottest-first per the recovered ranking, and the restart
// progress state must publish the heat-weighted fraction restored and
// stamp time-to-p99-restored.

import (
	"bytes"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/trace"
)

// heatCfg is testCfg with heat tracking and tracing on.
func heatCfg() Config {
	cfg := testCfg()
	cfg.HeatSnapshotBytes = 4 << 10
	cfg.HeatPersistEvery = 8
	cfg.FlightRecorderBytes = 128 << 10
	return cfg
}

// touchSkewed drives a strongly skewed access pattern: pids[0] gets the
// most touches, each later partition fewer, so the expected heat
// ranking is exactly pids order.
func touchSkewed(h *harness, pids []addr.PartitionID) {
	h.t.Helper()
	for i, pid := range pids {
		for n := 0; n < (len(pids)-i)*50; n++ {
			if _, err := h.store.Partition(pid); err != nil {
				h.t.Fatal(err)
			}
		}
	}
}

func TestHeatSnapshotSurvivesInjectedCrash(t *testing.T) {
	cfg := heatCfg()
	h := newHarness(t, cfg)
	h.start()
	_, pids := seedPartitions(h, 6)
	touchSkewed(h, pids)
	h.m.Heat().Persist() // make the pre-crash ranking complete and deterministic

	// Crash through the fault injector, exactly like the crashhunt
	// sweeps: every in-flight device operation fails, volatile state is
	// discarded, and the next attach recovers from stable memory alone.
	sweepCrash(h, pids)
	defer h.m.Stop()

	recovered := h.m.RecoveredHeat()
	if len(recovered) != len(pids) {
		t.Fatalf("recovered %d ranking entries, want %d", len(recovered), len(pids))
	}
	for i, ph := range recovered {
		if ph.PID != pids[i] {
			t.Fatalf("recovered ranking[%d] = %v, want %v (hottest-first)", i, ph.PID, pids[i])
		}
		if i > 0 && ph.Weight > recovered[i-1].Weight {
			t.Fatalf("ranking not descending at %d: %d > %d", i, ph.Weight, recovered[i-1].Weight)
		}
	}
}

// TestSweepFollowsHeatOrder crashes with a skewed pre-crash heat
// profile and proves — from the trace timeline, with a single sweep
// worker — that post-crash recovery order follows the pre-crash
// ranking.
func TestSweepFollowsHeatOrder(t *testing.T) {
	cfg := heatCfg()
	cfg.RecoveryWorkers = 1
	h := newHarness(t, cfg)
	h.start()
	want, pids := seedPartitions(h, 6)
	touchSkewed(h, pids)
	h.m.Heat().Persist()
	sweepCrash(h, pids)
	defer h.m.Stop()

	h.m.Resume()
	h.m.Sweep(false)

	// The sweep must have declared itself heat-ordered...
	var begin trace.Event
	var redo []addr.PartitionID
	for _, e := range h.m.TraceEvents() {
		switch e.Kind {
		case trace.KindSweepBegin:
			begin = e
		case trace.KindPartRedo:
			redo = append(redo, addr.PartitionID{
				Segment: addr.SegmentID(e.Seg), Part: addr.PartitionNum(e.Part),
			})
		}
	}
	if begin.Kind != trace.KindSweepBegin || begin.Arg != 1 {
		t.Fatalf("sweep begin = %+v, want heat-ordered (Arg=1)", begin)
	}
	// ...and, with one worker, recovered partitions in exactly the
	// pre-crash hottest-first order.
	if len(redo) != len(pids) {
		t.Fatalf("%d partitions recovered, want %d", len(redo), len(pids))
	}
	for i, pid := range redo {
		if pid != pids[i] {
			t.Fatalf("recovery order[%d] = %v, want %v (heat rank %d)", i, pid, pids[i], i)
		}
	}
	for a, w := range want {
		got, err := h.store.Read(a)
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("%v = %q (%v), want %q", a, got, err, w)
		}
	}
}

func TestSweepHeatOrderingDisabled(t *testing.T) {
	cfg := heatCfg()
	cfg.RecoveryWorkers = 1
	h := newHarness(t, cfg)
	h.start()
	_, pids := seedPartitions(h, 4)
	touchSkewed(h, pids)
	h.m.Heat().Persist()
	sweepCrash(h, pids)
	defer h.m.Stop()

	h.m.Resume()
	h.m.Sweep(true)
	for _, e := range h.m.TraceEvents() {
		if e.Kind == trace.KindSweepBegin && e.Arg != 0 {
			t.Fatalf("sweep begin Arg = %d with heat ordering disabled, want 0", e.Arg)
		}
	}
	if p := h.m.RecoveryProgress(0); p.HeatOrdered {
		t.Fatal("RecoveryProgress.HeatOrdered = true with ordering disabled")
	}
}

// TestRecoveryProgressAndTTP99 drives a full crash + sweep and checks
// the live progress view: counts, the heat-weighted fraction, the
// time-to-p99-restored stamp (gauge + trace event), and the top-hot
// residency list.
func TestRecoveryProgressAndTTP99(t *testing.T) {
	cfg := heatCfg()
	cfg.RecoveryWorkers = 2
	h := newHarness(t, cfg)
	h.start()
	_, pids := seedPartitions(h, 6)
	touchSkewed(h, pids)
	h.m.Heat().Persist()
	sweepCrash(h, pids)
	defer h.m.Stop()

	// Mid-restart, before the sweep: recovering, nothing restored.
	p := h.m.RecoveryProgress(3)
	if !p.Recovering || p.SweepDone {
		t.Fatalf("pre-sweep progress = %+v, want recovering", p)
	}
	if p.HeatWeightTotal <= 0 || p.HeatWeightRestored != 0 {
		t.Fatalf("pre-sweep weights = %d/%d, want 0/positive", p.HeatWeightRestored, p.HeatWeightTotal)
	}
	if len(p.TopHot) != 3 {
		t.Fatalf("TopHot has %d entries, want 3", len(p.TopHot))
	}
	for _, hp := range p.TopHot {
		if hp.Recovered {
			t.Fatalf("TopHot %v already recovered before the sweep", hp)
		}
	}

	h.m.Resume()
	h.m.Sweep(false)

	p = h.m.RecoveryProgress(3)
	if p.Recovering || !p.SweepDone {
		t.Fatalf("post-sweep progress = %+v, want done", p)
	}
	if p.PartsRecovered != int64(len(pids)) || p.PartsTotal != int64(len(pids)) {
		t.Fatalf("parts %d/%d, want %d/%d", p.PartsRecovered, p.PartsTotal, len(pids), len(pids))
	}
	if p.HeatWeightRestored != p.HeatWeightTotal || p.HeatFractionRestored != 1 {
		t.Fatalf("weight %d/%d (%.3f), want full restore",
			p.HeatWeightRestored, p.HeatWeightTotal, p.HeatFractionRestored)
	}
	if p.TTP99RestoredNS <= 0 {
		t.Fatal("TTP99RestoredNS not stamped after full sweep")
	}
	for _, hp := range p.TopHot {
		if !hp.Recovered {
			t.Fatalf("TopHot %v not recovered after the sweep", hp)
		}
	}
	if got := h.m.Metrics().TTP99Restored.Value(); got != p.TTP99RestoredNS {
		t.Fatalf("ttp99 gauge = %d, progress = %d", got, p.TTP99RestoredNS)
	}
	var sawStamp, sawProgress bool
	for _, e := range h.m.TraceEvents() {
		switch e.Kind {
		case trace.KindHeatP99Restored:
			sawStamp = e.Arg > 0
		case trace.KindSweepProgress:
			sawProgress = true
		}
	}
	if !sawStamp || !sawProgress {
		t.Fatalf("trace missing heat-p99-restored (%v) or sweep-progress (%v)", sawStamp, sawProgress)
	}
}

// TestHeatDisabledIsInert: with HeatSnapshotBytes zero the tracker is
// nil, no stable memory is reserved for heat, and restart behaves as
// before (unordered sweep, zero-valued progress).
func TestHeatDisabledIsInert(t *testing.T) {
	cfg := testCfg()
	cfg.FlightRecorderBytes = 32 << 10
	h := newHarness(t, cfg)
	h.start()
	_, pids := seedPartitions(h, 3)
	if h.m.Heat() != nil {
		t.Fatal("heat tracker present with HeatSnapshotBytes = 0")
	}
	sweepCrash(h, pids)
	defer h.m.Stop()
	h.m.Resume()
	h.m.Sweep(false)
	p := h.m.RecoveryProgress(4)
	if p.HeatOrdered || p.HeatWeightTotal != 0 || p.TTP99RestoredNS != 0 || len(p.TopHot) != 0 {
		t.Fatalf("progress with heat disabled = %+v, want inert heat fields", p)
	}
	if p.PartsRecovered != int64(len(pids)) {
		t.Fatalf("PartsRecovered = %d, want %d", p.PartsRecovered, len(pids))
	}
}

// TestCorruptHeatSnapshotFallsBackToCatalogOrder rots every generation
// slot of the stable heat snapshot (valid magic, bad CRC) and crashes.
// Restart must succeed with no error, the loader must reject the
// ranking — surfaced on heat/snapshot_rejected — and the sweep must
// fall back to clean catalog order with every row still recovered.
func TestCorruptHeatSnapshotFallsBackToCatalogOrder(t *testing.T) {
	cfg := heatCfg()
	cfg.RecoveryWorkers = 1
	h := newHarness(t, cfg)
	h.start()
	want, pids := seedPartitions(h, 6)
	touchSkewed(h, pids)
	h.m.Heat().Persist()
	h.m.Heat().Snap().CorruptSlots()

	sweepCrash(h, pids) // fails the test if Restart errors
	defer h.m.Stop()

	if got := h.m.RecoveredHeat(); len(got) != 0 {
		t.Fatalf("rotted snapshot still recovered a ranking: %v", got)
	}
	if n := h.m.MetricsSnapshot().Subsystem("heat").Counter("snapshot_rejected"); n < 1 {
		t.Fatalf("heat/snapshot_rejected = %d, want >= 1", n)
	}
	h.m.Resume()
	h.m.Sweep(false)

	var begin trace.Event
	for _, e := range h.m.TraceEvents() {
		if e.Kind == trace.KindSweepBegin {
			begin = e
		}
	}
	if begin.Kind != trace.KindSweepBegin || begin.Arg != 0 {
		t.Fatalf("sweep begin = %+v, want catalog-order fallback (Arg=0)", begin)
	}
	for a, w := range want {
		got, err := h.store.Read(a)
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("%v = %q (%v), want %q", a, got, err, w)
		}
	}
}
