package core

import (
	"bytes"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mmdb/internal/addr"
	"mmdb/internal/fault"
	"mmdb/internal/lock"
	"mmdb/internal/mm"
	"mmdb/internal/simdisk"
	"mmdb/internal/trace"
)

// sweepCrash is harness.crash without the Resume+Start tail: it powers
// the machine off and back on and runs Restart, leaving the test free
// to override callbacks and control exactly when (and how) the sweep
// runs. pids becomes the sweep's enumeration — the harness default only
// lists checkpointed partitions.
func sweepCrash(h *harness, pids []addr.PartitionID) {
	h.t.Helper()
	h.cfg.FaultInjector.ForceCrash()
	h.m.Stop()
	h.cfg.FaultInjector.Reset()
	h.attach()
	h.m.cb.AllPartitions = func() ([]addr.PartitionID, error) { return pids, nil }
	if _, err := h.m.Restart(); err != nil {
		h.t.Fatal(err)
	}
}

// seedPartitions spreads committed inserts across n segments and
// returns the expected contents plus the resident partition set.
func seedPartitions(h *harness, n int) (map[addr.EntityAddr][]byte, []addr.PartitionID) {
	h.t.Helper()
	want := map[addr.EntityAddr][]byte{}
	for s := 0; s < n; s++ {
		seg := h.seg()
		for j := 0; j < 5; j++ {
			data := bytes.Repeat([]byte{byte(16*s + j + 1)}, 400)
			want[h.insert(seg, data)] = data
		}
	}
	h.m.WaitIdle()
	return want, h.store.ResidentIDs()
}

// TestNewRejectsNegativeRecoveryWorkers: 0 is the only way to say "no
// sweep"; a negative width is a configuration error, not GOMAXPROCS.
func TestNewRejectsNegativeRecoveryWorkers(t *testing.T) {
	cfg := testCfg()
	cfg.RecoveryWorkers = -1
	hw, err := NewHardware(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(hw, cfg, mm.NewStore(cfg.PartitionSize), lock.NewManager()); err == nil {
		t.Fatal("New accepted RecoveryWorkers = -1")
	}
}

func TestParallelSweepRestoresAllPartitions(t *testing.T) {
	cfg := testCfg()
	cfg.RecoveryWorkers = 4
	cfg.FlightRecorderBytes = 128 << 10
	h := newHarness(t, cfg)
	h.start()
	want, pids := seedPartitions(h, 8)
	if len(pids) < cfg.RecoveryWorkers {
		t.Fatalf("only %d partitions seeded, need >= %d", len(pids), cfg.RecoveryWorkers)
	}
	sweepCrash(h, pids)
	h.m.Resume() // RecoveryWorkers > 0 => sweep starts
	h.m.Start()
	defer h.m.Stop()

	var end trace.Event
	h.idleWith("sweep end", func() bool {
		for _, e := range h.m.TraceEvents() {
			if e.Kind == trace.KindSweepEnd {
				end = e
				return true
			}
		}
		return false
	})
	if end.Arg != uint64(len(pids)) || end.Arg2 != 0 {
		t.Fatalf("sweep end restored=%d failed=%d, want %d/0", end.Arg, end.Arg2, len(pids))
	}
	workers := 0
	for _, e := range h.m.TraceEvents() {
		if e.Kind == trace.KindSweepWorkerBegin {
			workers++
		}
	}
	if workers != cfg.RecoveryWorkers {
		t.Fatalf("%d sweep workers ran, want %d", workers, cfg.RecoveryWorkers)
	}
	for _, pid := range pids {
		if !h.store.Resident(pid) {
			t.Fatalf("partition %v not restored by sweep", pid)
		}
	}
	st := h.m.Metrics()
	// Exactly one recovery transaction per partition: the workers'
	// demands coalesced through the store's resolve path.
	if st.PartsRecovered.Value() != int64(len(pids)) {
		t.Fatalf("PartsRecovered = %d, want %d", st.PartsRecovered.Value(), len(pids))
	}
	if st.RecoverySweepErrors.Value() != 0 {
		t.Fatalf("SweepErrors = %d on a clean sweep", st.RecoverySweepErrors.Value())
	}
	for a, w := range want {
		got, err := h.store.Read(a)
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("%v = %q (%v), want %q", a, got, err, w)
		}
	}
}

// TestWaitIdleCoversTheSweep: after a restart WaitIdle returns only once
// the background sweep has finished, here held back by a catalog scan
// that answers late.
func TestWaitIdleCoversTheSweep(t *testing.T) {
	cfg := testCfg()
	cfg.RecoveryWorkers = runtime.GOMAXPROCS(0)
	h := newHarness(t, cfg)
	h.start()
	_, pids := seedPartitions(h, 4)
	sweepCrash(h, pids)
	h.m.cb.AllPartitions = func() ([]addr.PartitionID, error) {
		<-time.After(30 * time.Millisecond)
		return pids, nil
	}
	h.m.Resume()
	h.m.Start()
	defer h.m.Stop()
	h.m.WaitIdle()
	if !h.m.RecoveryProgress(0).SweepDone {
		t.Fatal("WaitIdle returned before the sweep finished")
	}
	for _, pid := range pids {
		if !h.store.Resident(pid) {
			t.Fatalf("partition %v not resident after WaitIdle", pid)
		}
	}
}

// TestSweepCancellationMidFlight stops the manager while every sweep
// worker is inside a recovery transaction: Stop must interrupt the
// unfed remainder of the queue, the in-flight partitions must finish
// whole (no half-install), and on-demand recovery must still work after
// the sweep is gone.
func TestSweepCancellationMidFlight(t *testing.T) {
	cfg := testCfg()
	cfg.RecoveryWorkers = 2
	h := newHarness(t, cfg)
	h.start()
	want, pids := seedPartitions(h, 10)
	if len(pids) < 4 {
		t.Fatalf("only %d partitions seeded", len(pids))
	}
	sweepCrash(h, pids)

	// Both workers park inside Locate until released; later calls
	// (demand recovery during verification) pass straight through.
	var calls atomic.Int32
	arrived := make(chan struct{}, 2)
	release := make(chan struct{})
	prev := h.m.cb.Locate
	h.m.cb.Locate = func(pid addr.PartitionID) (simdisk.TrackLoc, error) {
		if calls.Add(1) <= 2 {
			arrived <- struct{}{}
			<-release
		}
		return prev(pid)
	}
	h.m.Resume()
	<-arrived
	<-arrived // both workers mid-recovery, feeder blocked on the third

	stopped := make(chan struct{})
	go func() {
		h.m.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while workers were mid-recovery")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return after workers were released")
	}

	// The two in-flight recoveries completed; nothing else ran.
	st := h.m.Metrics()
	if st.PartsRecovered.Value() != 2 {
		t.Fatalf("PartsRecovered = %d after cancellation, want 2", st.PartsRecovered.Value())
	}
	resident := 0
	for _, pid := range pids {
		if h.store.Resident(pid) {
			resident++
		}
	}
	if resident != 2 {
		t.Fatalf("%d partitions resident after cancellation, want 2", resident)
	}
	// Demand recovery of the unswept remainder still works, and every
	// partition — swept or demanded — carries the right bytes.
	for a, w := range want {
		got, err := h.store.Read(a)
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("%v = %q (%v), want %q", a, got, err, w)
		}
	}
}

// TestSweepCountsInjectedIOErrors drives the sweep into ckpt.read I/O
// errors: a transient error is retried once (database fully recovers,
// counter still records the attempt); a persistent error is given up on
// after the retry, counted, and left for demand recovery.
func TestSweepCountsInjectedIOErrors(t *testing.T) {
	seed := func(t *testing.T) (*harness, []addr.PartitionID, []addr.EntityAddr) {
		cfg := testCfg()
		cfg.FlightRecorderBytes = 32 << 10
		h := newHarness(t, cfg)
		h.start()
		// Checkpoint three partitions so sweep recovery reads images.
		var addrs []addr.EntityAddr
		for s := 0; s < 3; s++ {
			seg := h.seg()
			a := h.insert(seg, bytes.Repeat([]byte{byte(s + 1)}, 64))
			for i := 0; i < h.cfg.UpdateThreshold+8; i++ {
				h.update(a, bytes.Repeat([]byte{byte(i)}, 64))
			}
			addrs = append(addrs, a)
		}
		h.idleWith("checkpoints", func() bool { return h.m.Metrics().CkptCompleted.Value() >= 3 })
		pids := h.store.ResidentIDs()
		sweepCrash(h, pids)
		return h, pids, addrs
	}

	t.Run("transient-retried", func(t *testing.T) {
		h, pids, _ := seed(t)
		defer h.m.Stop()
		mustArm(t, h, "seed=1;ckpt.read@1:ioerr")
		h.m.Resume()
		h.m.Sweep(false, 2)
		st := h.m.Metrics()
		if st.RecoverySweepErrors.Value() != 1 {
			t.Fatalf("SweepErrors = %d, want 1 (the retried attempt)", st.RecoverySweepErrors.Value())
		}
		for _, pid := range pids {
			if !h.store.Resident(pid) {
				t.Fatalf("partition %v not recovered despite retry", pid)
			}
		}
		if st.PartsRecovered.Value() != int64(len(pids)) {
			t.Fatalf("PartsRecovered = %d, want %d", st.PartsRecovered.Value(), len(pids))
		}
	})

	t.Run("persistent-given-up", func(t *testing.T) {
		h, pids, addrs := seed(t)
		defer h.m.Stop()
		// Every checkpointed partition has a track here, so every sweep
		// recovery (attempt + retry) fails.
		mustArm(t, h, "seed=1;ckpt.read@1+*:ioerr")
		h.m.Resume()
		h.m.Sweep(false, 2)
		st := h.m.Metrics()
		if st.RecoverySweepErrors.Value() < int64(2*len(pids)) {
			t.Fatalf("SweepErrors = %d, want >= %d (attempt + retry per partition)",
				st.RecoverySweepErrors.Value(), 2*len(pids))
		}
		var end trace.Event
		for _, e := range h.m.TraceEvents() {
			if e.Kind == trace.KindSweepEnd {
				end = e
			}
		}
		if end.Kind != trace.KindSweepEnd || end.Arg2 != uint64(len(pids)) {
			t.Fatalf("sweep end = %+v, want %d given-up partitions", end, len(pids))
		}
		for _, pid := range pids {
			if h.store.Resident(pid) {
				t.Fatalf("partition %v installed despite failing recovery", pid)
			}
		}
		// The sweep gave up, but the fault clearing (here: a reset)
		// leaves the partitions demand-recoverable.
		h.cfg.FaultInjector.Reset()
		for _, a := range addrs {
			if _, err := h.store.Read(a); err != nil {
				t.Fatalf("demand recovery after failed sweep: %v: %v", a, err)
			}
		}
	})
}

// TestSweepEnumerationErrorSurfaced: a sweep that cannot list the
// partitions must not end looking like a complete pass — the failure is
// counted and lands on the trace timeline.
func TestSweepEnumerationErrorSurfaced(t *testing.T) {
	cfg := testCfg()
	cfg.FlightRecorderBytes = 8 << 10
	h := newHarness(t, cfg)
	defer h.m.Stop()
	boom := errors.New("catalog scan failed")
	h.m.cb.AllPartitions = func() ([]addr.PartitionID, error) { return nil, boom }
	h.m.Sweep(false, runtime.GOMAXPROCS(0))
	if got := h.m.Metrics().RecoverySweepErrors.Value(); got != 1 {
		t.Fatalf("SweepErrors = %d, want 1", got)
	}
	var sawErr, sawEnd bool
	for _, e := range h.m.TraceEvents() {
		switch e.Kind {
		case trace.KindSweepError:
			sawErr = e.Str == boom.Error()
		case trace.KindSweepEnd:
			sawEnd = true
		}
	}
	if !sawErr || !sawEnd {
		t.Fatalf("trace missing sweep-error (%v) or sweep-end (%v)", sawErr, sawEnd)
	}
}

func mustArm(t *testing.T, h *harness, plan string) {
	t.Helper()
	p, err := fault.ParsePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	h.cfg.FaultInjector.Arm(p)
}
