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

// TestGroupCommitIntervalParksUntilStop: under a one-hour epoch timer K
// committers all land in the open epoch and wait. Stop releases each of
// them with an error, none acknowledged, and restart rolls the epoch back
// whole.
func TestGroupCommitIntervalParksUntilStop(t *testing.T) {
	const k = 4
	cfg := testCfg()
	cfg.LogStreams = 2
	cfg.GroupCommitInterval = time.Hour
	h := newHarness(t, cfg)
	sealed := h.m.slb.st.sealed.Load()
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func(txn uint64) {
			errs <- h.m.InjectCommitted(txn, []wal.Record{{
				Tag: wal.TagRelInsert, PID: addr.PartitionID{Segment: 2, Part: 0}, Slot: addr.Slot(txn), Data: []byte("parked"),
			}})
		}(uint64(i + 1))
	}
	// Yield until every chain is on a committed list; no commit can
	// return before the hour is up, so none may have.
	for n, _ := h.committedChains(); n < k; n, _ = h.committedChains() {
		runtime.Gosched()
	}
	if n, epochs := h.committedChains(); n != k || len(epochs) != 1 || h.m.slb.st.sealed.Load() != sealed {
		t.Fatalf("%d chains over epochs %v, sealed %d -> %d", n, epochs, sealed, h.m.slb.st.sealed.Load())
	}
	if len(errs) != 0 {
		t.Fatalf("a commit returned before the epoch timer or Stop: %v", <-errs)
	}
	h.m.Stop()
	for i := 0; i < k; i++ {
		if err := <-errs; err == nil {
			t.Fatal("Stop acknowledged a commit of an unsealed epoch")
		}
	}
	h.attach()
	if _, err := h.m.Restart(); err != nil {
		t.Fatal(err)
	}
	defer h.m.Stop()
	if rb := h.m.Metrics().EpochRollbacks.Value(); rb != k {
		t.Fatalf("EpochRollbacks = %d, want %d", rb, k)
	}
}

// TestGroupCommitIntervalHoldsTheEpochOpen: a commit returns no earlier
// than the interval after the previous seal. It is a lower bound only;
// how much later the seal comes depends on the scheduler.
func TestGroupCommitIntervalHoldsTheEpochOpen(t *testing.T) {
	const interval = 10 * time.Millisecond
	cfg := testCfg()
	cfg.GroupCommitInterval = interval
	h := newHarness(t, cfg)
	defer h.m.Stop()
	seg := h.seg()
	for i := 0; i < 3; i++ {
		h.m.slb.gcMu.Lock()
		prev := h.m.slb.epochStart
		h.m.slb.gcMu.Unlock()
		h.insert(seg, []byte("timed"))
		if held := time.Since(prev); held < interval {
			t.Fatalf("commit %d returned %v after the previous seal, want >= %v", i, held, interval)
		}
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
