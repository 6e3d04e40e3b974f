package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mmdb/internal/addr"
	"mmdb/internal/fault"
	"mmdb/internal/lock"
	"mmdb/internal/mm"
	"mmdb/internal/simdisk"
	"mmdb/internal/txn"
	"mmdb/internal/wal"
)

// harness wires a Manager to a trivial "catalog": every partition
// belongs to relation 1, and checkpoint locations live in a map that is
// itself parked in stable memory so it survives harness crashes.
type harness struct {
	t     *testing.T
	cfg   Config
	hw    *Hardware
	m     *Manager
	store *mm.Store

	mu     sync.Mutex
	tracks map[addr.PartitionID]simdisk.TrackLoc
}

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.PartitionSize = 4 << 10
	cfg.LogPageSize = 512
	cfg.SLBBlockSize = 512
	cfg.UpdateThreshold = 32
	cfg.LogWindowPages = 64
	cfg.GracePages = 4
	cfg.CheckpointTracks = 256
	cfg.StableBytes = 8 << 20
	cfg.RecoveryWorkers = 0
	// Every harness carries an (initially empty) injector so crashes go
	// through the same fault machinery as the crashhunt sweeps.
	cfg.FaultInjector = fault.NewInjector(fault.Plan{})
	return cfg
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	hw, err := NewHardware(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, cfg: cfg, hw: hw, tracks: make(map[addr.PartitionID]simdisk.TrackLoc)}
	hw.Stable.SetRoot("test-tracks", h.tracks)
	h.attach()
	return h
}

// attach builds a fresh Manager over the (possibly crash-surviving)
// hardware.
func (h *harness) attach() {
	h.store = mm.NewStore(h.cfg.PartitionSize)
	locks := lock.NewManager()
	m, err := New(h.hw, h.cfg, h.store, locks)
	if err != nil {
		h.t.Fatal(err)
	}
	h.tracks = h.hw.Stable.Root("test-tracks").(map[addr.PartitionID]simdisk.TrackLoc)
	m.SetCallbacks(Callbacks{
		OwnerRel: func(pid addr.PartitionID) (uint64, bool) { return 1, true },
		InstallCkpt: func(t *txn.Txn, pid addr.PartitionID, track simdisk.TrackLoc) (simdisk.TrackLoc, error) {
			h.mu.Lock()
			defer h.mu.Unlock()
			old, ok := h.tracks[pid]
			if !ok {
				old = simdisk.NilTrack
			}
			h.tracks[pid] = track
			return old, nil
		},
		Locate: func(pid addr.PartitionID) (simdisk.TrackLoc, error) {
			h.mu.Lock()
			defer h.mu.Unlock()
			if tr, ok := h.tracks[pid]; ok {
				return tr, nil
			}
			return simdisk.NilTrack, nil
		},
		AllPartitions: func() ([]addr.PartitionID, error) {
			h.mu.Lock()
			defer h.mu.Unlock()
			out := make([]addr.PartitionID, 0, len(h.tracks))
			for pid := range h.tracks {
				out = append(out, pid)
			}
			return out, nil
		},
	})
	h.m = m
	// Mark allocated tracks so restart doesn't double-allocate.
	h.mu.Lock()
	for _, tr := range h.tracks {
		m.MarkTrackUsed(tr)
	}
	h.mu.Unlock()
}

// crash halts the simulated machine through the fault injector — every
// in-flight device operation fails from that instant — then discards
// all volatile state and re-attaches a fresh Manager over the surviving
// hardware, running Restart + Resume as a real power cycle would.
func (h *harness) crash() {
	h.cfg.FaultInjector.ForceCrash()
	h.m.Stop()
	h.cfg.FaultInjector.Reset() // power back on with a clean slate
	h.attach()
	if _, err := h.m.Restart(); err != nil {
		h.t.Fatal(err)
	}
	h.m.Resume()
	h.m.Start()
}

func (h *harness) start() { h.m.Start() }

// seg makes a segment and returns its ID.
func (h *harness) seg() addr.SegmentID { return h.store.CreateSegment() }

// write runs one committed transaction inserting/overwriting entities.
func (h *harness) insert(seg addr.SegmentID, data []byte) addr.EntityAddr {
	h.t.Helper()
	t := h.m.Txns.Begin()
	a, err := t.InsertEntity(seg, false, data)
	if err != nil {
		h.t.Fatal(err)
	}
	if err := t.Commit(); err != nil {
		h.t.Fatal(err)
	}
	return a
}

func (h *harness) update(a addr.EntityAddr, data []byte) {
	h.t.Helper()
	t := h.m.Txns.Begin()
	if err := t.UpdateEntity(a, false, data); err != nil {
		h.t.Fatal(err)
	}
	if err := t.Commit(); err != nil {
		h.t.Fatal(err)
	}
}

// idleWith waits for the manager to go idle, then requires cond.
func (h *harness) idleWith(what string, cond func() bool) {
	h.t.Helper()
	h.m.WaitIdle()
	if !cond() {
		h.t.Fatalf("idle without %s", what)
	}
}

// drain runs the sorter on the calling goroutine, as its callers in the
// manager do: under sortMu.
func (h *harness) drain() {
	h.m.sortMu.Lock()
	defer h.m.sortMu.Unlock()
	h.m.drain()
}

func TestUpdateCountTriggersCheckpoint(t *testing.T) {
	h := newHarness(t, testCfg())
	h.start()
	defer h.m.Stop()
	seg := h.seg()
	a := h.insert(seg, bytes.Repeat([]byte{1}, 64))
	for i := 0; i < h.cfg.UpdateThreshold+10; i++ {
		h.update(a, bytes.Repeat([]byte{byte(i)}, 64))
	}
	h.idleWith("update-count checkpoint", func() bool {
		return h.m.Metrics().CkptCompleted.Value() >= 1
	})
	st := h.m.Metrics()
	if st.CkptByUpdateCount.Value() == 0 {
		t.Fatalf("stats: %+v", st)
	}
	// The bin's update count must have been reset by the fence drop.
	for _, b := range h.m.BinStates() {
		if b.PID == a.Partition() && b.UpdateCount > h.cfg.UpdateThreshold {
			t.Fatalf("bin update count %d not reset", b.UpdateCount)
		}
	}
	// And the checkpoint image + residual log reproduce the partition.
	h.mu.Lock()
	track := h.tracks[a.Partition()]
	h.mu.Unlock()
	if track == simdisk.NilTrack {
		t.Fatal("no checkpoint track recorded")
	}
	rec, err := h.m.restorePartition(a.Partition(), track)
	if err != nil {
		t.Fatal(err)
	}
	live, _ := h.store.Partition(a.Partition())
	want, err1 := live.Read(a.Slot)
	got, err2 := rec.Read(a.Slot)
	if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
		t.Fatalf("recovered %q (%v), want %q (%v)", got, err2, want, err1)
	}
}

func TestAgeTriggersCheckpoint(t *testing.T) {
	cfg := testCfg()
	cfg.UpdateThreshold = 1 << 30 // never trigger by count
	cfg.LogWindowPages = 16
	cfg.GracePages = 2
	h := newHarness(t, cfg)
	h.start()
	defer h.m.Stop()
	segA, segB := h.seg(), h.seg()
	a := h.insert(segA, bytes.Repeat([]byte{9}, 64))
	b := h.insert(segB, bytes.Repeat([]byte{8}, 64))
	// A receives a couple more updates (old pages), then B floods the
	// log, pushing A's first page toward the window edge.
	h.update(a, bytes.Repeat([]byte{7}, 64))
	for i := 0; i < 400; i++ {
		h.update(b, bytes.Repeat([]byte{byte(i)}, 64))
	}
	h.idleWith("age checkpoint", func() bool { return h.m.Metrics().CkptByAge.Value() >= 1 })
}

func TestCheckpointFailureRetriesAndRecovers(t *testing.T) {
	h := newHarness(t, testCfg())
	boom := errors.New("injected fault")
	var failures int
	var mu sync.Mutex
	h.m.Hooks.BeforeCommit = func(pid addr.PartitionID) error {
		mu.Lock()
		defer mu.Unlock()
		if failures < 3 {
			failures++
			return boom
		}
		return nil
	}
	h.start()
	defer h.m.Stop()
	seg := h.seg()
	a := h.insert(seg, []byte("victim"))
	for i := 0; i < h.cfg.UpdateThreshold+5; i++ {
		h.update(a, []byte(fmt.Sprintf("v%04d", i)))
	}
	h.idleWith("checkpoint success after failures", func() bool {
		return h.m.Metrics().CkptCompleted.Value() >= 1
	})
	if h.m.Metrics().CkptFailed.Value() < 3 {
		t.Fatalf("expected >=3 failures, got %d", h.m.Metrics().CkptFailed.Value())
	}
}

// TestCrashBetweenCommitAndFinish is the subtle window: the checkpoint
// transaction committed (catalog points at the new image) but the
// recovery CPU never dropped the fenced prefix. Recovery replays
// already-applied records onto the new image; lenient replay must
// converge.
func TestCrashBetweenCommitAndFinish(t *testing.T) {
	h := newHarness(t, testCfg())
	h.start()
	seg := h.seg()
	a := h.insert(seg, []byte("state-0"))
	// Complete a checkpoint normally; the lenient-replay convergence
	// for the commit-before-finish window is checked directly by
	// TestLenientReplayOntoNewerImage, and end-to-end here by
	// recovering from the image plus whatever the bin retains.
	for i := 0; i < h.cfg.UpdateThreshold+5; i++ {
		h.update(a, []byte(fmt.Sprintf("state-%04d", i)))
	}
	h.idleWith("first checkpoint", func() bool { return h.m.Metrics().CkptCompleted.Value() >= 1 })

	// More updates after the checkpoint.
	for i := 0; i < 7; i++ {
		h.update(a, []byte(fmt.Sprintf("post-%04d", i)))
	}
	h.m.WaitIdle()

	// Live state.
	live, _ := h.store.Partition(a.Partition())
	want, err := live.Read(a.Slot)
	if err != nil {
		t.Fatal(err)
	}
	want = append([]byte(nil), want...)

	// Crash and recover on demand: the image includes the first ~37
	// updates; the bin retains the post-checkpoint ones.
	h.crash()
	defer h.m.Stop()
	p, err := h.store.Partition(a.Partition())
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(a.Slot)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("recovered %q, want %q (%v)", got, want, err)
	}
}

// TestRestoreSharesTrackUntilFirstWrite holds the recovery transaction
// to no image copy: with the bin empty, the restored partition reads its
// checkpoint track in place (after the envelope CRC and the structural
// checks) and the restore allocates under 8 KiB. The partition's first
// write then allocates one exact-size image of its own and leaves the
// track as it was.
func TestRestoreSharesTrackUntilFirstWrite(t *testing.T) {
	cfg := testCfg()
	cfg.PartitionSize = 48 << 10 // an allocator size class: exact means exact
	cfg.UpdateThreshold = 1 << 30
	h := newHarness(t, cfg)
	h.start()
	a := h.insert(h.seg(), bytes.Repeat([]byte{7}, 512))
	pid := a.Partition()
	h.m.RequestCheckpoint(pid)
	h.idleWith("a checkpoint", func() bool { return h.m.Metrics().CkptCompleted.Value() == 1 })
	h.powerOff()
	h.powerOn()
	defer h.m.Stop()
	for _, b := range h.m.BinStates() {
		if b.PID == pid && (len(b.Pages) != 0 || b.CurRecords != 0) {
			t.Fatalf("bin of %v holds %d pages and %d records, want none", pid, len(b.Pages), b.CurRecords)
		}
	}
	h.mu.Lock()
	track := h.tracks[pid]
	h.mu.Unlock()
	stored, _, err := h.m.hw.Ckpt.ReadTrackSplit(track, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(stored)
	shared := h.m.Metrics().ImagesShared.Value()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := h.m.restorePartition(pid, track)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := p.Read(a.Slot); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{7}, 512)) {
		t.Fatalf("restored entity: %v", err)
	}
	if img := p.Image(); !p.Shared() || len(img) != cfg.PartitionSize || &img[0] != &stored[0] {
		t.Fatalf("restored image (shared %v, %d bytes) is not a view of its track", p.Shared(), len(img))
	}
	if got := h.m.Metrics().ImagesShared.Value() - shared; got != 1 {
		t.Fatalf("restart/images_shared moved by %d, want 1", got)
	}
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("restore allocated %d bytes", n)
	if n >= 8<<10 {
		t.Fatalf("restore allocated %d bytes, want under %d", n, 8<<10)
	}

	runtime.ReadMemStats(&before)
	p.Latch()
	err = p.WriteAt(a.Slot, 0, []byte{8})
	p.Unlatch()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n = after.TotalAlloc - before.TotalAlloc
	t.Logf("first write allocated %d bytes", n)
	if n < uint64(cfg.PartitionSize) || n >= uint64(cfg.PartitionSize+8<<10) {
		t.Fatalf("first write allocated %d bytes, want one %d-byte image and under 8 KiB besides", n, cfg.PartitionSize)
	}
	if img := p.Image(); p.Shared() || cap(img) != cfg.PartitionSize || &img[0] == &stored[0] {
		t.Fatalf("written image (shared %v, capacity %d) is not a private exact-size copy", p.Shared(), cap(img))
	}
	if !bytes.Equal(stored, want) {
		t.Fatal("the first write changed the checkpoint track")
	}
}

func TestLenientReplayOntoNewerImage(t *testing.T) {
	// Direct unit check of the §2.4/§2.5 race: replaying the full
	// record sequence onto an image that already contains a prefix of
	// it converges to the final state.
	pid := addr.PartitionID{Segment: 5, Part: 0}
	p := mm.NewPartition(pid, 4096)
	var recs []byte
	emit := func(tag byte, slot addr.Slot, off uint16, data []byte) {
		r := walRecord(tag, pid, slot, off, data)
		recs = r.Encode(recs)
	}
	// History: insert s0; insert s1; update s0; delete s1; insert s2;
	// write-at s2.
	mustOK(t, p.InsertAt(0, []byte("aaaa")))
	emit('i', 0, 0, []byte("aaaa"))
	mustOK(t, p.InsertAt(1, []byte("bbbb")))
	emit('i', 1, 0, []byte("bbbb"))
	mustOK(t, p.Update(0, []byte("AAAA")))
	emit('u', 0, 0, []byte("AAAA"))
	mustOK(t, p.Delete(1))
	emit('d', 1, 0, nil)
	mustOK(t, p.InsertAt(2, []byte("cccc")))
	emit('i', 2, 0, []byte("cccc"))
	mustOK(t, p.WriteAt(2, 1, []byte("XY")))
	emit('w', 2, 1, []byte("XY"))

	// p is now the "image that already contains everything" (a
	// checkpoint taken after the fence). Replay the full history onto
	// it.
	img, err := mm.FromImage(pid, p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	mustReplay(t, img, recs)
	for slot := addr.Slot(0); slot <= 2; slot++ {
		w, errW := p.Read(slot)
		g, errG := img.Read(slot)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("slot %d: presence mismatch (%v vs %v)", slot, errW, errG)
		}
		if errW == nil && !bytes.Equal(w, g) {
			t.Fatalf("slot %d: %q vs %q", slot, w, g)
		}
	}
	// And replaying onto an empty image also converges (normal path).
	fresh := mm.NewPartition(pid, 4096)
	mustReplay(t, fresh, recs)
	g, err := fresh.Read(0)
	if err != nil || !bytes.Equal(g, []byte("AAAA")) {
		t.Fatalf("fresh slot 0 = %q, %v", g, err)
	}
	if _, err := fresh.Read(1); err == nil {
		t.Fatal("deleted slot present after fresh replay")
	}
	g, _ = fresh.Read(2)
	if !bytes.Equal(g, []byte("cXYc")) {
		t.Fatalf("fresh slot 2 = %q", g)
	}
}

func TestWindowArchivesToStore(t *testing.T) {
	cfg := testCfg()
	cfg.LogWindowPages = 8
	cfg.GracePages = 2
	cfg.UpdateThreshold = 16
	h := newHarness(t, cfg)
	h.start()
	defer h.m.Stop()
	seg := h.seg()
	a := h.insert(seg, bytes.Repeat([]byte{1}, 64))
	for i := 0; i < 600; i++ {
		h.update(a, bytes.Repeat([]byte{byte(i)}, 64))
	}
	h.idleWith("archived pages", func() bool { return h.hw.Arch.Entries() > 0 })
	// The log disk footprint stays near the window size.
	h.idleWith("bounded log disk", func() bool {
		return h.m.Hardware().Log.Primary.PageCount() <= cfg.LogWindowPages+cfg.GracePages+4
	})
}

func TestRecoveryAfterResortDuplicates(t *testing.T) {
	// A committed chain that was only partially sorted at crash time
	// is re-sorted entirely on restart; the duplicated records must
	// not corrupt recovery.
	h := newHarness(t, testCfg())
	h.start()
	seg := h.seg()
	a := h.insert(seg, []byte("v0"))
	h.update(a, []byte("v1"))
	h.m.WaitIdle()
	// Simulate the partial sort: re-inject the already-sorted chain's
	// records by appending them again to the committed list. We do it
	// with a fresh committed transaction repeating the same update.
	h.update(a, []byte("v1"))
	h.m.WaitIdle()
	h.crash()
	defer h.m.Stop()
	p, err := h.store.Partition(a.Partition())
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(a.Slot)
	if err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestManyPartitionsRandomizedCrashRecovery(t *testing.T) {
	cfg := testCfg()
	cfg.UpdateThreshold = 24
	cfg.LogWindowPages = 48
	h := newHarness(t, cfg)
	h.start()
	rng := rand.New(rand.NewSource(99))
	model := map[addr.EntityAddr][]byte{}
	var segs []addr.SegmentID
	for i := 0; i < 4; i++ {
		segs = append(segs, h.seg())
	}
	var addrs []addr.EntityAddr
	for round := 0; round < 6; round++ {
		for step := 0; step < 120; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(addrs) == 0:
				data := make([]byte, 8+rng.Intn(48))
				rng.Read(data)
				a := h.insert(segs[rng.Intn(len(segs))], data)
				model[a] = append([]byte(nil), data...)
				addrs = append(addrs, a)
			case op < 8:
				a := addrs[rng.Intn(len(addrs))]
				if _, ok := model[a]; !ok {
					continue
				}
				data := make([]byte, 8+rng.Intn(48))
				rng.Read(data)
				h.update(a, data)
				model[a] = append([]byte(nil), data...)
			default:
				a := addrs[rng.Intn(len(addrs))]
				if _, ok := model[a]; !ok {
					continue
				}
				// The relation lock, as the facade takes it: Commit
				// applies the delete after the commit point and only then
				// releases it, so a checkpoint's S lock cannot image the
				// partition in between and fence off the delete record.
				tt := h.m.Txns.Begin()
				if err := tt.LockRelation(1, lock.IX); err != nil {
					t.Fatal(err)
				}
				if err := tt.DeleteEntity(a); err != nil {
					t.Fatal(err)
				}
				if err := tt.Commit(); err != nil {
					t.Fatal(err)
				}
				delete(model, a)
			}
		}
		h.m.WaitIdle()
		h.crash()
		// Verify every entity against the model (forces on-demand
		// recovery of all partitions).
		for a, want := range model {
			p, err := h.store.Partition(a.Partition())
			if err != nil {
				t.Fatalf("round %d: recover %v: %v", round, a.Partition(), err)
			}
			got, err := p.Read(a.Slot)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("round %d: %v = %q (%v), want %q", round, a, got, err, want)
			}
		}
		// Deleted entities stay deleted.
		for _, a := range addrs {
			if _, ok := model[a]; ok {
				continue
			}
			if p, err := h.store.Partition(a.Partition()); err == nil {
				if _, err := p.Read(a.Slot); err == nil {
					t.Fatalf("round %d: deleted entity %v resurrected", round, a)
				}
			}
		}
	}
	h.m.Stop()
}

func TestStatsAndWaitIdle(t *testing.T) {
	h := newHarness(t, testCfg())
	h.start()
	defer h.m.Stop()
	seg := h.seg()
	a := h.insert(seg, []byte("x"))
	h.update(a, []byte("y"))
	h.m.WaitIdle()
	st := h.m.Metrics()
	if st.RecordsSorted.Value() < 3 { // part-alloc + insert + update
		t.Fatalf("RecordsSorted = %d", st.RecordsSorted.Value())
	}
	if st.TxnsCommitted.Value() != 2 {
		t.Fatalf("TxnsCommitted = %d", st.TxnsCommitted.Value())
	}
	if st.BytesSorted.Value() <= 0 {
		t.Fatal("BytesSorted not counted")
	}
}

// TestWaitIdleSignalAllocatesNothing: the recovery CPU signals idle after
// every drained batch, so the signal must cost no allocation.
func TestWaitIdleSignalAllocatesNothing(t *testing.T) {
	h := newHarness(t, testCfg())
	h.start()
	defer h.m.Stop()
	h.m.WaitIdle()
	if n := testing.AllocsPerRun(100, h.m.signalIdle); n != 0 {
		t.Fatalf("signalIdle allocates %.1f times per call", n)
	}
}

// TestPartitionFreedDropsBin: the bin is gone when PartitionFreed
// returns and stays gone. The insert is committed but not yet sorted
// when the partition is freed, so the drop must sort it first: sorted
// after the drop, it would make the bin again.
func TestPartitionFreedDropsBin(t *testing.T) {
	h := newHarness(t, testCfg())
	defer h.m.Stop()
	pid := h.insert(h.seg(), []byte("gone")).Partition()
	gone := func(when string) {
		t.Helper()
		for _, b := range h.m.BinStates() {
			if b.PID == pid {
				t.Fatalf("%s: bin %+v present", when, b)
			}
		}
	}
	h.m.PartitionFreed(pid)
	gone("when PartitionFreed returns")
	h.start()
	h.m.WaitIdle()
	gone("once the recovery CPU has run")
}

// TestPartitionFreedAfterStopKeepsBin: once the machine has stopped,
// freeing a partition changes no stable state; the next incarnation
// finds the bin as the stop left it.
func TestPartitionFreedAfterStopKeepsBin(t *testing.T) {
	h := newHarness(t, testCfg())
	h.start()
	a := h.insert(h.seg(), []byte("kept"))
	h.m.WaitIdle()
	h.m.Stop()
	before := h.m.BinStates()
	h.m.PartitionFreed(a.Partition())
	if after := h.m.BinStates(); !reflect.DeepEqual(after, before) {
		t.Fatalf("bins after a stopped PartitionFreed = %+v, want %+v", after, before)
	}
}

// TestCheckpointRunsWithoutRecoveryCPU: the drain barrier, the fence
// and the finish are plain calls, so a checkpoint completes on the
// calling goroutine with no recovery-CPU loop running.
func TestCheckpointRunsWithoutRecoveryCPU(t *testing.T) {
	h := newHarness(t, testCfg())
	defer h.m.Stop()
	a := h.insert(h.seg(), []byte("v0000"))
	pid := a.Partition()
	for i := 0; i < 5; i++ {
		h.update(a, []byte(fmt.Sprintf("v%04d", i)))
	}
	h.m.RequestCheckpoint(pid)
	// A checkpoint that waits for a loop nobody started would hang:
	// stopping the machine at the deadline fails it instead.
	deadline := time.AfterFunc(10*time.Second, h.m.Stop)
	defer deadline.Stop()
	got, trig, ok := h.m.slt.nextCkpt()
	if !ok || got != pid {
		t.Fatalf("next checkpoint request = %v (%v), want %v", got, ok, pid)
	}
	if err := h.m.runCheckpoint(got, trig); err != nil {
		t.Fatalf("checkpoint without a recovery CPU: %v", err)
	}
	if b := h.binOf(pid); b.CkptPending || b.FenceActive || b.UpdateCount != 0 || len(b.Pages) != 0 || b.CurRecords != 0 {
		t.Fatalf("bin after the checkpoint = %+v, want its fenced prefix dropped", b)
	}
	if n := h.m.Metrics().CkptCompleted.Value(); n != 1 {
		t.Fatalf("%d checkpoints completed, want 1", n)
	}
	h.mu.Lock()
	track := h.tracks[pid]
	h.mu.Unlock()
	rec, err := h.m.restorePartition(pid, track)
	mustOK(t, err)
	live, err := h.store.Partition(pid)
	mustOK(t, err)
	if !bytes.Equal(rec.Image(), live.Image()) {
		t.Fatal("the partition restored from the new track differs from the live one")
	}
}

// TestFailedCheckpointRetriesAtOnce: a failed attempt is retried
// without waiting, so one call of serveCheckpoints on the test goroutine,
// with no Start, runs the request through four failures to completion.
func TestFailedCheckpointRetriesAtOnce(t *testing.T) {
	const failures = 4 // below maxCkptAttempts, so the request survives
	h := newHarness(t, testCfg())
	defer h.m.Stop()
	a := h.insert(h.seg(), []byte("v0000"))
	pid := a.Partition()
	for i := 0; i < 5; i++ {
		h.update(a, []byte(fmt.Sprintf("v%04d", i)))
	}
	attempts := 0
	h.m.Hooks.BeforeCommit = func(addr.PartitionID) error {
		if attempts++; attempts <= failures {
			return fmt.Errorf("injected failure %d", attempts)
		}
		return nil
	}
	h.m.RequestCheckpoint(pid)
	// A retry that waited for something would hang: stopping the machine
	// at the deadline ends the serving call instead.
	deadline := time.AfterFunc(10*time.Second, h.m.Stop)
	defer deadline.Stop()
	h.m.serveCheckpoints()
	mt := h.m.Metrics()
	if f, c := mt.CkptFailed.Value(), mt.CkptCompleted.Value(); f != failures || c != 1 {
		t.Fatalf("%d attempts failed and %d completed, want %d and 1", f, c, failures)
	}
	if b := h.binOf(pid); b.CkptPending || b.FenceActive {
		t.Fatalf("bin after the retries = %+v, want no request and no fence", b)
	}
}

// --- helpers ---

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// mustReplay applies a record stream that must decode and apply whole.
func mustReplay(t *testing.T, p *mm.Partition, buf []byte) {
	t.Helper()
	if _, _, cut, err := replayPrefix(p, buf); err != nil || cut != nil {
		t.Fatalf("replay: cut %v, err %v", cut, err)
	}
}

func walRecord(tag byte, pid addr.PartitionID, slot addr.Slot, off uint16, data []byte) *wal.Record {
	var tg wal.Tag
	switch tag {
	case 'i':
		tg = wal.TagRelInsert
	case 'u':
		tg = wal.TagRelUpdate
	case 'd':
		tg = wal.TagRelDelete
	case 'w':
		tg = wal.TagRelWrite
	}
	return &wal.Record{Tag: tg, Txn: 1, PID: pid, Slot: slot, Off: off, Data: data}
}
