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
// each "slb.stamp" hit of a concurrent workload: between a commit
// taking its number and listing its chain, while other committers and
// the sorter run. Every committer returns. After restart each worker's
// slot holds its last acknowledged value: no acknowledged commit is
// lost, and the commit whose stamp crashed, like every later one, never
// surfaces. The gap the crash leaves in the sequence holds up neither
// the sorter nor restart's drain.
func TestCrashAtEveryStampKeepsAcknowledgedCommits(t *testing.T) {
	const workers, txnsPer = 4, 4
	for hit := 1; hit <= workers*txnsPer; hit++ {
		cfg := testCfg()
		cfg.FaultInjector = fault.NewInjector(fault.Plan{Rules: []fault.Rule{
			{Point: fault.PointSLBStamp, Hit: hit, Act: fault.ActCrashBefore, Torn: -1},
		}})
		h := newHarness(t, cfg)
		h.start()
		last := stampWorkload(t, h, workers, txnsPer)
		if !cfg.FaultInjector.Crashed() {
			t.Fatalf("slb.stamp@%d never fired", hit)
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
				t.Fatalf("hit=%d: worker %d had no commit acknowledged, slot holds %q", hit, w, got)
			case k >= 0 && string(got) != fmt.Sprintf("w%d-txn%02d", w, k):
				t.Fatalf("hit=%d: worker %d's slot = %q (%v), want its last acknowledged txn %d",
					hit, w, got, err, k)
			}
		}
		h.m.Stop()
	}
}

// TestStampCrashRollsBackWholeTxn crashes the machine between a
// transaction taking its commit number and listing its chain. The
// transaction, whose Commit returned a crash error and never an
// acknowledgement, is rolled back whole at restart: neither of its two
// updates surfaces, and the transaction acknowledged before it
// survives. Its number stays taken: the sequence survives the crash,
// the next commit takes a larger number, and the gap holds up neither
// restart's drain nor the sorter.
func TestStampCrashRollsBackWholeTxn(t *testing.T) {
	cfg := testCfg()
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
// test holds the SLB's latch, so none can stamp; it runs then (the
// crash to come) and releases the latch. It requires every Commit to
// return a crash error within a minute.
func commitBehindLatch(t *testing.T, h *harness, chains []txn.RedoChain, then func()) {
	t.Helper()
	st := h.m.slb.st
	st.mu.Lock()
	errs := make(chan error, len(chains))
	for _, c := range chains {
		go func(c txn.RedoChain) { errs <- c.Commit() }(c)
	}
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	early := len(errs)
	then()
	st.mu.Unlock()
	if early != 0 {
		t.Fatalf("%d commits returned while the SLB's latch was held", early)
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

// TestCrashFailsEveryCommitQueuedOnTheLatch: K committers wait on the
// SLB's latch, which the test holds, so none can take a number and list
// its chain; the machine then crashes. Released, each takes its number
// and fails at its stamp, none acknowledged. Nothing is listed, and
// restart, which must not wait on the K-number gap, surfaces none.
func TestCrashFailsEveryCommitQueuedOnTheLatch(t *testing.T) {
	const k = 4
	h := newHarness(t, testCfg())
	chains := make([]txn.RedoChain, k)
	for i := range chains {
		chains[i] = beginSlotChain(t, h, uint64(i+1), i, "unlisted")
	}
	commitBehindLatch(t, h, chains, h.cfg.FaultInjector.ForceCrash)
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

// TestCrashAtStampWakesQueuedCommitters: committers queue on the SLB's
// latch, which the test holds, and the first to take it crashes at its
// stamp. That failed commit must release the latch and so wake the
// others: each then fails at its own stamp, no commit hangs and none is
// acknowledged. A commit acknowledged before the crash survives
// restart.
func TestCrashAtStampWakesQueuedCommitters(t *testing.T) {
	cfg := testCfg()
	// The manager is not started, so the test's commits are the only
	// stamps: txn 1's is hit 1, the first queued committer's is hit 2.
	cfg.FaultInjector = fault.NewInjector(fault.Plan{Rules: []fault.Rule{
		{Point: fault.PointSLBStamp, Hit: 2, Act: fault.ActCrashBefore, Torn: -1},
	}})
	h := newHarness(t, cfg)
	if err := beginSlotChain(t, h, 1, 0, "acknowledged").Commit(); err != nil {
		t.Fatal(err)
	}
	txns := []uint64{2, 3, 4, 5}
	chains := make([]txn.RedoChain, len(txns))
	for i, id := range txns {
		chains[i] = beginSlotChain(t, h, id, i+1, "queued")
	}
	commitBehindLatch(t, h, chains, func() {})
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

// checkSequence fails the test unless the committed list holds the
// last n commit numbers taken, each once, in ascending order: the list
// is then the commit order the sorter reads.
func checkSequence(t *testing.T, h *harness, n int) {
	t.Helper()
	st := h.m.slb.st
	st.mu.Lock()
	last := st.seq.Load() - uint64(n)
	listed := 0
	for c := st.head; c != nil; c = c.next {
		if c.seq != last+1 {
			t.Errorf("the committed list holds commit %d after %d", c.seq, last)
		}
		last = c.seq
		listed++
	}
	tail := st.tail
	st.mu.Unlock()
	if listed != n || last != st.seq.Load() {
		t.Errorf("%d chains listed, the last numbered %d; want %d ending at %d", listed, last, n, st.seq.Load())
	}
	if n > 0 && (tail == nil || tail.seq != last) {
		t.Errorf("the list's tail is not its last chain")
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

// TestMergeReplayMatchesSingleStream is the commit-order property
// test: the same deterministic workload of conflicting updates, run
// once with the sorter draining as it goes and once left entirely
// unsorted at the crash (the manager is never started), must recover to
// byte-identical entities, the last committed value of each. In the
// second run restart's drain sorts the whole committed list, so it must
// replay the chains in commit order, as the running sorter does.
func TestMergeReplayMatchesSingleStream(t *testing.T) {
	final := make(map[int][]byte)
	var recovered [2][][]byte
	for i, sorted := range []bool{true, false} {
		h := newHarness(t, testCfg())
		if sorted {
			h.start()
		}
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
		if sorted {
			h.idleWith("the sorter draining every chain", func() bool { return !h.m.slb.busy() })
		} else {
			checkSequence(t, h, nEnts+40)
		}
		h.crash()
		tx := h.m.Txns.Begin()
		for e := 0; e < nEnts; e++ {
			got, err := tx.ReadEntity(addrs[e])
			if err != nil {
				t.Fatalf("sorted=%v: reading entity %d: %v", sorted, e, err)
			}
			if !bytes.Equal(got, final[e]) {
				t.Fatalf("sorted=%v: entity %d = %q, want %q (replay broke commit order)",
					sorted, e, got, final[e])
			}
			recovered[i] = append(recovered[i], got)
		}
		tx.Abort()
		h.m.Stop()
	}
	for e := range recovered[0] {
		if !bytes.Equal(recovered[0][e], recovered[1][e]) {
			t.Fatalf("entity %d diverges between the live-sorted (%q) and restart-sorted (%q) recovery",
				e, recovered[0][e], recovered[1][e])
		}
	}
}

// TestMergeReplayConcurrentDisjoint drives concurrent committers with
// disjoint write sets through the SLB with no sorter running, so their
// commits interleave on the one list; restart's drain must preserve
// each committer's program order (later commits of one worker replay
// after its earlier ones).
func TestMergeReplayConcurrentDisjoint(t *testing.T) {
	h := newHarness(t, testCfg())
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
	// the worker's program order; the drain must land the last write.
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

// TestCommittedListDrainsInNumberOrder commits 10 000 one-record chains
// with the recovery CPU not started, each writing its own number into
// one of a few slots, then drains them: at once, or half by the
// sorter's own steps and the rest by restart's drain after a crash.
// Each bin must hold its partition's records in number order, none
// lost and none twice; the list must end empty with every block back in
// the pool; and the two runs must restore the same partitions, each slot
// holding its last writer's number.
func TestCommittedListDrainsInNumberOrder(t *testing.T) {
	const chains, parts, slots = 10000, 8, 50
	pid := func(k int) addr.PartitionID {
		return addr.PartitionID{Segment: 2, Part: addr.PartitionNum(k % parts)}
	}
	run := func(t *testing.T, crashMidway bool) [parts][slots]string {
		h := poolHarness(t) // one page per bin: nothing flushes or folds
		defer func() { h.m.Stop() }()
		h.store.EnsureSegment(2)
		for p := 0; p < parts; p++ {
			if _, err := h.store.AllocPartitionAt(pid(p)); err != nil {
				t.Fatal(err)
			}
		}
		record := func(k int) []wal.Record {
			return []wal.Record{{
				Tag: wal.TagRelInsert, PID: pid(k), Slot: addr.Slot(k / parts % slots),
				Data: []byte(fmt.Sprintf("%05d", k)),
			}}
		}
		// Warm up: every bin and its page buffer exist before Used is read.
		for p := 0; p < parts; p++ {
			mustOK(t, h.m.InjectCommitted(uint64(p+1), record(p)))
		}
		h.drain()
		used := h.hw.Stable.Used()
		for k := parts; k < chains; k++ {
			mustOK(t, h.m.InjectCommitted(uint64(k+1), record(k)))
		}
		checkSequence(t, h, chains-parts)
		if crashMidway {
			h.m.sortMu.Lock()
			for i := 0; i < chains/2; i++ {
				c := h.m.slb.peekOldest(h.m.slb.st.seq.Load())
				mustOK(t, h.m.sortChain(c))
				h.m.slb.markSorted(c)
			}
			h.m.sortMu.Unlock()
			h.crash()
		} else {
			h.drain()
		}
		if h.m.slb.busy() {
			t.Fatal("the committed list is not empty after the drain")
		}
		if got := h.hw.Stable.Used(); got != used {
			t.Fatalf("stable memory in use = %d B after the drain, want the %d before the load", got, used)
		}
		var out [parts][slots]string
		seen := 0
		for p := 0; p < parts; p++ {
			last := -1
			w := wal.Walk(h.binBytes(pid(p)))
			for w.Next() {
				var k int
				if _, err := fmt.Sscanf(string(w.Record().Data), "%d", &k); err != nil {
					t.Fatal(err)
				}
				if k%parts != p || k <= last {
					t.Fatalf("partition %d's bin holds chain %d after chain %d", p, k, last)
				}
				last = k
				seen++
			}
			mustOK(t, w.Err())
			part, err := h.m.restorePartition(pid(p), simdisk.NilTrack)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < slots; s++ {
				got, err := part.Read(addr.Slot(s))
				if err != nil {
					t.Fatalf("partition %d slot %d: %v", p, s, err)
				}
				out[p][s] = string(got)
			}
		}
		if seen != chains {
			t.Fatalf("the bins hold %d records, want %d", seen, chains)
		}
		return out
	}
	var lastWriter [parts][slots]string
	for k := 0; k < chains; k++ {
		lastWriter[k%parts][k/parts%slots] = fmt.Sprintf("%05d", k)
	}
	if live := run(t, false); live != lastWriter {
		t.Fatal("a live drain left a slot without its last writer's number")
	}
	if crashed := run(t, true); crashed != lastWriter {
		t.Fatal("the partitions restored after a crash mid-drain differ from the live drain's")
	}
}
