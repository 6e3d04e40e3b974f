package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"mmdb/internal/addr"
	"mmdb/internal/fault"
	"mmdb/internal/lock"
	"mmdb/internal/mm"
	"mmdb/internal/simdisk"
	"mmdb/internal/wal"
)

// TestEpochBoundaryCrashRollsBackWholeEpoch crashes the machine between
// two streams' seals of the same epoch: the epoch is sealed on a strict
// prefix of the streams but never published, so the transaction — whose
// Commit returned an error, never an acknowledgement — must be rolled
// back whole at restart, and the previously sealed epoch must survive.
func TestEpochBoundaryCrashRollsBackWholeEpoch(t *testing.T) {
	cfg := testCfg()
	cfg.LogStreams = 4
	// Each seal touches 4 streams, one "slb.seal" hit per stream. The
	// first commit seals epoch 1 (hits 1–4); the second commit's seal of
	// epoch 2 crashes at hit 6 — after stream 0's stamp, before stream
	// 1's — the exact half-sealed window group commit must tolerate.
	cfg.FaultInjector = fault.NewInjector(fault.Plan{Rules: []fault.Rule{
		{Point: fault.PointSLBSeal, Hit: 6, Act: fault.ActCrashBefore, Torn: -1},
	}})
	h := newHarness(t, cfg)
	h.start()
	defer h.m.Stop()

	seg := h.seg()
	a := h.insert(seg, []byte("sealed-and-durable"))
	h.m.WaitIdle()

	tx := h.m.Txns.Begin()
	if err := tx.UpdateEntity(a, false, []byte("never-acknowledged!")); err != nil {
		t.Fatal(err)
	}
	err := tx.Commit()
	if !fault.IsCrash(err) {
		t.Fatalf("commit during half-sealed epoch: err = %v, want crash", err)
	}

	h.crash()
	defer h.m.Stop()
	if rb := h.m.Metrics().EpochRollbacks.Value(); rb < 1 {
		t.Fatalf("EpochRollbacks = %d, want >= 1", rb)
	}
	rtx := h.m.Txns.Begin()
	defer rtx.Abort()
	got, err := rtx.ReadEntity(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("sealed-and-durable")) {
		t.Fatalf("after rollback entity = %q, want the epoch-1 value", got)
	}
}

// committedChains counts the chains on every stream's committed list,
// and the distinct epochs they carry.
func (h *harness) committedChains() (n int, epochs map[uint64]bool) {
	epochs = map[uint64]bool{}
	for _, ls := range h.m.slb.st.streams {
		ls.mu.Lock()
		for _, c := range ls.committed {
			n++
			epochs[c.epoch] = true
		}
		ls.mu.Unlock()
	}
	return n, epochs
}

// TestCrashFailsEveryCommitOfAnUnsealedEpoch: K committers stamp one
// epoch while the test holds gcMu, so none can seal it; the machine then
// crashes. Released, each committer becomes seal leader in turn and
// fails, none acknowledged, and restart rolls the epoch back whole.
func TestCrashFailsEveryCommitOfAnUnsealedEpoch(t *testing.T) {
	const k = 4
	cfg := testCfg()
	cfg.LogStreams = 2
	h := newHarness(t, cfg)
	sealed := h.m.slb.st.sealed.Load()
	errs := make(chan error, k)
	h.m.slb.gcMu.Lock()
	for i := 0; i < k; i++ {
		go func(txn uint64) {
			errs <- h.m.InjectCommitted(txn, []wal.Record{{
				Tag: wal.TagRelInsert, PID: addr.PartitionID{Segment: 2, Part: 0}, Slot: addr.Slot(txn), Data: []byte("parked"),
			}})
		}(uint64(i + 1))
	}
	// Yield until every chain is on a committed list; no seal can start
	// while gcMu is held, so no commit may have returned.
	for n, _ := h.committedChains(); n < k; n, _ = h.committedChains() {
		runtime.Gosched()
	}
	if n, epochs := h.committedChains(); n != k || len(epochs) != 1 || h.m.slb.st.sealed.Load() != sealed {
		t.Fatalf("%d chains over epochs %v, sealed %d -> %d", n, epochs, sealed, h.m.slb.st.sealed.Load())
	}
	if len(errs) != 0 {
		t.Fatalf("a commit returned before its epoch could seal: %v", <-errs)
	}
	h.cfg.FaultInjector.ForceCrash()
	h.m.slb.gcMu.Unlock()
	for i := 0; i < k; i++ {
		if err := <-errs; !fault.IsCrash(err) {
			t.Fatalf("commit of an unsealed epoch after the crash returned %v, want a crash error", err)
		}
	}
	if s := h.m.slb.st.sealed.Load(); s != sealed {
		t.Fatalf("sealed moved %d -> %d after the crash", sealed, s)
	}
	h.m.Stop()
	h.cfg.FaultInjector.Reset()
	h.attach()
	if _, err := h.m.Restart(); err != nil {
		t.Fatal(err)
	}
	defer h.m.Stop()
	if rb := h.m.Metrics().EpochRollbacks.Value(); rb != k {
		t.Fatalf("EpochRollbacks = %d, want %d", rb, k)
	}
}

// TestCrashMidSealWakesItsFollowers: the seal leader stops inside its
// seal, on a stream latch the test holds, while the other committers
// wait for that seal; the machine crashes before the leader goes on.
// Its failed seal must still wake them, and each then fails a seal of
// its own: no commit hangs and none is acknowledged.
func TestCrashMidSealWakesItsFollowers(t *testing.T) {
	cfg := testCfg()
	cfg.LogStreams = 3
	h := newHarness(t, cfg)
	defer h.m.Stop()
	held := h.m.slb.st.streams[1]
	held.mu.Lock()
	txns := []uint64{3, 5, 6, 8} // streams 0 and 2, never the held one
	errs := make(chan error, len(txns))
	for _, id := range txns {
		go func(txn uint64) {
			errs <- h.m.InjectCommitted(txn, []wal.Record{{
				Tag: wal.TagRelInsert, PID: addr.PartitionID{Segment: 2, Part: 0}, Slot: addr.Slot(txn), Data: []byte("mid-seal"),
			}})
		}(id)
	}
	// No seal can pass the held latch, so once every chain is on a
	// committed list the first committer is leader, stopped in its seal,
	// and the others wait for it.
	for stamped := 0; stamped < len(txns); {
		runtime.Gosched()
		stamped = 0
		for _, ls := range []*logStream{h.m.slb.st.streams[0], h.m.slb.st.streams[2]} {
			ls.mu.Lock()
			stamped += len(ls.committed)
			ls.mu.Unlock()
		}
	}
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	h.cfg.FaultInjector.ForceCrash()
	held.mu.Unlock()
	for range txns {
		if err := <-errs; !fault.IsCrash(err) {
			t.Fatalf("commit waiting on a seal that crashed returned %v, want a crash error", err)
		}
	}
}

// TestNewRejectsGroupCommitInterval: epochs seal eagerly, so New
// refuses any group-commit interval but 0.
func TestNewRejectsGroupCommitInterval(t *testing.T) {
	cfg := testCfg()
	cfg.GroupCommitInterval = time.Millisecond
	hw, err := NewHardware(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(hw, cfg, mm.NewStore(cfg.PartitionSize), lock.NewManager()); err == nil {
		t.Fatal("New accepted a 1 ms group-commit interval")
	}
}

// TestSurvivingBufferKeepsItsStreams: a buffer that survives a crash
// keeps the stream count it was made with, even empty and even when the
// new instance asks for another, and slb/streams reports the kept count.
func TestSurvivingBufferKeepsItsStreams(t *testing.T) {
	cfg := testCfg()
	cfg.LogStreams = 3
	h := newHarness(t, cfg)
	if h.m.slb.busy() {
		t.Fatal("a fresh buffer holds committed chains")
	}
	h.powerOff()
	h.cfg.LogStreams = 5
	h.powerOn()
	defer h.m.Stop()
	if n := h.m.slb.streams(); n != 3 {
		t.Fatalf("the surviving buffer has %d streams, want its own 3", n)
	}
	if v := h.m.Metrics().Streams.Value(); v != 3 {
		t.Fatalf("slb/streams reads %d, want 3", v)
	}
	if n := len(h.m.Metrics().StreamRecords); n != 3 {
		t.Fatalf("%d per-stream record counters, want 3", n)
	}
}

// TestMergeReplayMatchesSingleStream is the merge-order property test:
// the same deterministic workload of conflicting updates, run against a
// 4-stream and a 1-stream SLB and left entirely unsorted at the crash
// (the manager is never started), must recover to byte-identical
// entities. The chains land on different streams in the 4-stream run,
// so restart's (epoch, stream, sequence) merge must reproduce the
// single-stream replay order semantics — commit order.
func TestMergeReplayMatchesSingleStream(t *testing.T) {
	final := make(map[int][]byte)
	var recovered [2][][]byte
	for i, streams := range []int{1, 4} {
		cfg := testCfg()
		cfg.LogStreams = streams
		h := newHarness(t, cfg)
		// No h.start(): the sorter never runs, so every chain is still
		// in the SLB at the crash and restart performs the full merge.
		seg := h.seg()
		const nEnts = 3
		var addrs []addr.EntityAddr
		for e := 0; e < nEnts; e++ {
			addrs = append(addrs, h.insert(seg, []byte(fmt.Sprintf("init-%d", e))))
		}
		for round := 0; round < 40; round++ {
			e := round % nEnts
			val := []byte(fmt.Sprintf("round-%02d-ent-%d", round, e))
			h.update(addrs[e], val)
			final[e] = val
		}
		h.crash()
		tx := h.m.Txns.Begin()
		for e := 0; e < nEnts; e++ {
			got, err := tx.ReadEntity(addrs[e])
			if err != nil {
				t.Fatalf("streams=%d: reading entity %d: %v", streams, e, err)
			}
			if !bytes.Equal(got, final[e]) {
				t.Fatalf("streams=%d: entity %d = %q, want %q (merge order broke commit order)",
					streams, e, got, final[e])
			}
			recovered[i] = append(recovered[i], got)
		}
		tx.Abort()
		h.m.Stop()
	}
	for e := range recovered[0] {
		if !bytes.Equal(recovered[0][e], recovered[1][e]) {
			t.Fatalf("entity %d diverges between 1-stream (%q) and 4-stream (%q) recovery",
				e, recovered[0][e], recovered[1][e])
		}
	}
}

// TestMergeReplayConcurrentDisjoint drives concurrent committers with
// disjoint write sets through a 4-stream SLB with no sorter running, so
// sealed epochs hold multiple chains across streams; restart's merge
// must preserve each committer's program order (later commits of one
// worker replay after its earlier ones) even though the chains of one
// epoch interleave arbitrarily across streams.
func TestMergeReplayConcurrentDisjoint(t *testing.T) {
	cfg := testCfg()
	cfg.LogStreams = 4
	h := newHarness(t, cfg)
	const workers, txnsPer = 8, 12
	h.store.EnsureSegment(2)
	for w := 0; w < workers; w++ {
		if _, err := h.store.AllocPartitionAt(addr.PartitionID{Segment: 2, Part: addr.PartitionNum(w)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pid := addr.PartitionID{Segment: 2, Part: addr.PartitionNum(w)}
			for k := 0; k < txnsPer; k++ {
				recs := []wal.Record{{
					Tag: wal.TagRelInsert, PID: pid, Slot: 0,
					Data: []byte(fmt.Sprintf("w%d-txn%02d", w, k)),
				}}
				// Worker-affine txn IDs spread workers across streams.
				if err := h.m.InjectCommitted(uint64(w+workers*k+1), recs); err != nil {
					t.Errorf("worker %d txn %d: %v", w, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if sealed := h.m.slb.st.sealed.Load(); sealed == 0 {
		t.Fatal("no epoch sealed")
	}
	h.crash()
	defer h.m.Stop()
	// Slot 0 of each worker's partition was overwritten txnsPer times in
	// the worker's program order; the merge must land the last write.
	for w := 0; w < workers; w++ {
		pid := addr.PartitionID{Segment: 2, Part: addr.PartitionNum(w)}
		p, err := h.m.restorePartition(pid, simdisk.NilTrack)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("w%d-txn%02d", w, txnsPer-1)
		if string(got) != want {
			t.Fatalf("worker %d slot = %q, want %q", w, got, want)
		}
	}
	if st := h.m.Metrics(); st.EpochRollbacks.Value() != 0 {
		t.Fatalf("unexpected epoch rollbacks: %d", st.EpochRollbacks.Value())
	}
}
