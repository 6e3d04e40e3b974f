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
	"mmdb/internal/txn"
	"mmdb/internal/wal"
)

// stampWorkload allocates one partition of segment 2 per worker and
// runs the workers at once with the sorter going: worker w commits
// txnsPer transactions, each overwriting slot 0 of its partition with
// "w<w>-txn<k>", and stops at its first failed commit. It returns each
// worker's last acknowledged k, -1 when none was, and fails the test if
// a committer has not returned within a minute.
func stampWorkload(t *testing.T, h *harness, workers, txnsPer int) []int {
	t.Helper()
	h.store.EnsureSegment(2)
	for w := 0; w < workers; w++ {
		if _, err := h.store.AllocPartitionAt(addr.PartitionID{Segment: 2, Part: addr.PartitionNum(w)}); err != nil {
			t.Fatal(err)
		}
	}
	last := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		last[w] = -1
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < txnsPer; k++ {
				recs := []wal.Record{{
					Tag: wal.TagRelInsert, PID: addr.PartitionID{Segment: 2, Part: addr.PartitionNum(w)},
					Data: []byte(fmt.Sprintf("w%d-txn%02d", w, k)),
				}}
				// Worker-affine txn IDs spread workers across streams.
				if err := h.m.InjectCommitted(uint64(w+workers*k+1), recs); err != nil {
					if !fault.IsCrash(err) {
						t.Errorf("worker %d txn %d: %v", w, k, err)
					}
					return
				}
				last[w] = k
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("a committer has not returned")
	}
	return last
}

// TestCrashAtEveryStampKeepsAcknowledgedCommits crashes the machine at
// each "slb.stamp" hit of a concurrent workload, at 1 and 4 log
// streams: between a commit taking its number and listing its chain,
// while other committers and the sorter run. Every committer returns.
// After restart each worker's slot holds its last acknowledged value:
// no acknowledged commit is lost, and the commit whose stamp crashed,
// like every later one, never surfaces. The gap the crash leaves in the
// sequence holds up neither the sorter nor restart's merge.
func TestCrashAtEveryStampKeepsAcknowledgedCommits(t *testing.T) {
	const workers, txnsPer = 4, 4
	for _, streams := range []int{1, 4} {
		for hit := 1; hit <= workers*txnsPer; hit++ {
			cfg := testCfg()
			cfg.LogStreams = streams
			cfg.FaultInjector = fault.NewInjector(fault.Plan{Rules: []fault.Rule{
				{Point: fault.PointSLBStamp, Hit: hit, Act: fault.ActCrashBefore, Torn: -1},
			}})
			h := newHarness(t, cfg)
			h.start()
			last := stampWorkload(t, h, workers, txnsPer)
			if !cfg.FaultInjector.Crashed() {
				t.Fatalf("streams=%d: slb.stamp@%d never fired", streams, hit)
			}
			h.crash()
			for w, k := range last {
				p, err := h.m.restorePartition(addr.PartitionID{Segment: 2, Part: addr.PartitionNum(w)}, simdisk.NilTrack)
				if err != nil {
					t.Fatal(err)
				}
				got, err := p.Read(0)
				switch {
				case k < 0 && err == nil:
					t.Fatalf("streams=%d hit=%d: worker %d had no commit acknowledged, slot holds %q", streams, hit, w, got)
				case k >= 0 && string(got) != fmt.Sprintf("w%d-txn%02d", w, k):
					t.Fatalf("streams=%d hit=%d: worker %d's slot = %q (%v), want its last acknowledged txn %d",
						streams, hit, w, got, err, k)
				}
			}
			h.m.Stop()
		}
	}
}

// TestEpochBoundaryCrashRollsBackWholeEpoch crashes the machine at the
// boundary one commit number draws, between a transaction taking its
// number and listing its chain, at 4 log streams. The transaction, whose
// Commit returned a crash error and never an acknowledgement, is rolled
// back whole at restart: neither of its two updates surfaces, and the
// transaction acknowledged before it survives. Its number stays taken:
// the sequence survives the crash, the next commit takes a larger
// number, and the gap holds up neither restart's merge nor the sorter.
func TestEpochBoundaryCrashRollsBackWholeEpoch(t *testing.T) {
	cfg := testCfg()
	cfg.LogStreams = 4
	// The manager is not started, so the test's commits are the only
	// stamps: the insert is hit 1, the update's stamp (hit 2) crashes.
	cfg.FaultInjector = fault.NewInjector(fault.Plan{Rules: []fault.Rule{
		{Point: fault.PointSLBStamp, Hit: 2, Act: fault.ActCrashBefore, Torn: -1},
	}})
	h := newHarness(t, cfg)
	seg := h.seg()
	tx := h.m.Txns.Begin()
	var ents [2]addr.EntityAddr
	for i := range ents {
		a, err := tx.InsertEntity(seg, false, []byte(fmt.Sprintf("acknowledged-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ents[i] = a
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = h.m.Txns.Begin()
	for i, a := range ents {
		if err := tx.UpdateEntity(a, false, []byte(fmt.Sprintf("never-acknowledged-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); !fault.IsCrash(err) {
		t.Fatalf("commit whose stamp crashed: err = %v, want crash", err)
	}
	crashed := h.m.slb.st.seq.Load()

	h.crash()
	defer h.m.Stop()
	if s := h.m.slb.st.seq.Load(); s != crashed {
		t.Fatalf("commit sequence %d after restart, want the %d it reached before the crash", s, crashed)
	}
	rtx := h.m.Txns.Begin()
	for i, a := range ents {
		got, err := rtx.ReadEntity(a)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("acknowledged-%d", i); string(got) != want {
			t.Fatalf("after restart entity %d = %q, want the acknowledged %q", i, got, want)
		}
	}
	rtx.Abort()

	h.update(ents[0], []byte("after-restart"))
	if s := h.m.slb.st.seq.Load(); s != crashed+1 {
		t.Fatalf("the first commit after restart left the sequence at %d, want %d", s, crashed+1)
	}
	h.idleWith("the sorter draining past the gap", func() bool { return !h.m.slb.busy() })
}

// beginSlotChain opens txnID's chain with one record writing data into
// slot 0 of segment 2's partition part, allocating that partition.
func beginSlotChain(t *testing.T, h *harness, txnID uint64, part int, data string) txn.RedoChain {
	t.Helper()
	pid := addr.PartitionID{Segment: 2, Part: addr.PartitionNum(part)}
	h.store.EnsureSegment(2)
	if _, err := h.store.AllocPartitionAt(pid); err != nil {
		t.Fatal(err)
	}
	c := h.m.slb.BeginTxn(txnID)
	rec := wal.Record{Tag: wal.TagRelInsert, PID: pid, Txn: txnID, Data: []byte(data)}
	if err := c.WriteRecord(&rec); err != nil {
		t.Fatal(err)
	}
	return c
}

// commitBehindLatch commits every chain on its own goroutine while the
// test holds the latch of stream held, so none can stamp; it runs then
// (the crash to come) and releases the latch. It requires every Commit
// to return a crash error within a minute.
func commitBehindLatch(t *testing.T, h *harness, held int, chains []txn.RedoChain, then func()) {
	t.Helper()
	ls := h.m.slb.st.streams[held]
	ls.mu.Lock()
	errs := make(chan error, len(chains))
	for _, c := range chains {
		go func(c txn.RedoChain) { errs <- c.Commit() }(c)
	}
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	early := len(errs)
	then()
	ls.mu.Unlock()
	if early != 0 {
		t.Fatalf("%d commits returned while their stream's latch was held", early)
	}
	timeout := time.After(time.Minute)
	for range chains {
		select {
		case err := <-errs:
			if !fault.IsCrash(err) {
				t.Fatalf("commit behind the crash returned %v, want a crash error", err)
			}
		case <-timeout:
			t.Fatal("a committer has not returned")
		}
	}
}

// wantSlotEmpty fails the test if restart surfaced a write into slot 0
// of segment 2's partition part.
func wantSlotEmpty(t *testing.T, h *harness, part int) {
	t.Helper()
	p, err := h.m.restorePartition(addr.PartitionID{Segment: 2, Part: addr.PartitionNum(part)}, simdisk.NilTrack)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := p.Read(0); err == nil {
		t.Fatalf("partition %d's slot holds %q from a commit never acknowledged", part, got)
	}
}

// TestCrashFailsEveryCommitOfAnUnsealedEpoch: K committers wait on their
// stream's latch, which the test holds, so none can take a number and
// list its chain; the machine then crashes. Released, each takes its
// number and fails at its stamp, none acknowledged. Nothing is listed,
// and restart, which must not wait on the K-number gap, surfaces none.
func TestCrashFailsEveryCommitOfAnUnsealedEpoch(t *testing.T) {
	const k = 4
	cfg := testCfg()
	cfg.LogStreams = 2
	h := newHarness(t, cfg)
	chains := make([]txn.RedoChain, k)
	for i := range chains {
		chains[i] = beginSlotChain(t, h, uint64(2*i+1), i, "unlisted") // odd IDs: stream 1
	}
	commitBehindLatch(t, h, 1, chains, h.cfg.FaultInjector.ForceCrash)
	if s := h.m.slb.st.seq.Load(); s != k {
		t.Fatalf("commit sequence %d, want the %d numbers the failed commits took", s, k)
	}
	if h.m.slb.busy() {
		t.Fatal("a chain was listed after the crash")
	}
	h.m.Stop()
	h.cfg.FaultInjector.Reset()
	h.attach()
	if _, err := h.m.Restart(); err != nil {
		t.Fatal(err)
	}
	defer h.m.Stop()
	for i := range chains {
		wantSlotEmpty(t, h, i)
	}
}

// TestCrashMidSealWakesItsFollowers: committers queue on one stream's
// latch, which the test holds, and the first to take it crashes at its
// stamp. That failed commit must release the latch and so wake the
// others: each then fails at its own stamp, no commit hangs and none is
// acknowledged. A commit acknowledged on another stream before the
// crash survives restart.
func TestCrashMidSealWakesItsFollowers(t *testing.T) {
	cfg := testCfg()
	cfg.LogStreams = 3
	// The manager is not started, so the test's commits are the only
	// stamps: txn 3's is hit 1, the first queued committer's is hit 2.
	cfg.FaultInjector = fault.NewInjector(fault.Plan{Rules: []fault.Rule{
		{Point: fault.PointSLBStamp, Hit: 2, Act: fault.ActCrashBefore, Torn: -1},
	}})
	h := newHarness(t, cfg)
	if err := beginSlotChain(t, h, 3, 0, "acknowledged").Commit(); err != nil { // stream 0
		t.Fatal(err)
	}
	txns := []uint64{1, 4, 7, 10} // all on stream 1
	chains := make([]txn.RedoChain, len(txns))
	for i, id := range txns {
		chains[i] = beginSlotChain(t, h, id, i+1, "queued")
	}
	commitBehindLatch(t, h, 1, chains, func() {})
	if !h.cfg.FaultInjector.Crashed() {
		t.Fatal("slb.stamp@2 never fired")
	}

	h.crash()
	defer h.m.Stop()
	p, err := h.m.restorePartition(addr.PartitionID{Segment: 2, Part: 0}, simdisk.NilTrack)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := p.Read(0); err != nil || !bytes.Equal(got, []byte("acknowledged")) {
		t.Fatalf("the acknowledged commit's slot = %q (%v), want %q", got, err, "acknowledged")
	}
	for i := range txns {
		wantSlotEmpty(t, h, i+1)
	}
}

// checkSequence fails the test unless the committed lists hold commit
// numbers 1..n, each once, every list in ascending order: the merge
// then has every number to order by.
func checkSequence(t *testing.T, h *harness, n int) {
	t.Helper()
	seen := make(map[uint64]bool)
	for _, ls := range h.m.slb.st.streams {
		ls.mu.Lock()
		for j, c := range ls.committed {
			if j > 0 && c.seq <= ls.committed[j-1].seq {
				t.Errorf("stream %d lists commit %d after %d", ls.id, c.seq, ls.committed[j-1].seq)
			}
			if c.seq < 1 || c.seq > uint64(n) || seen[c.seq] {
				t.Errorf("stream %d lists commit number %d twice or outside 1..%d", ls.id, c.seq, n)
			}
			seen[c.seq] = true
		}
		ls.mu.Unlock()
	}
	if len(seen) != n {
		t.Errorf("%d chains listed, want %d", len(seen), n)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestNewRejectsGroupCommitInterval: commit has no group, so New
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
// so restart's merge by commit number must reproduce the single-stream
// replay order semantics — commit order.
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
		checkSequence(t, h, nEnts+40)
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
// consecutive commit numbers land on different streams; restart's merge
// must preserve each committer's program order (later commits of one
// worker replay after its earlier ones).
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
	checkSequence(t, h, workers*txnsPer)
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
	if h.m.slb.busy() {
		t.Fatal("restart left committed chains unsorted")
	}
}
