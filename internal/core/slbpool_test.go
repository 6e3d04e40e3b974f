package core

import (
	"bytes"
	"runtime/debug"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/fault"
	"mmdb/internal/stablemem"
	"mmdb/internal/txn"
	"mmdb/internal/wal"
)

// The SLB's blocks come from stable memory's free pool (§2.3.1): a
// sorted or aborted chain returns them, restart's discards only free
// them. These tests hold the pool to that rule and to its purpose.

// raceBuild reports whether the test binary runs under the race
// detector, where sync.Pool drops a share of what it is given.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// poolHarness is a harness whose pages never fill and whose bins never
// ask for a checkpoint, not started: the test commits and sorts.
func poolHarness(t *testing.T) *harness {
	cfg := testCfg()
	cfg.SLBBlockSize = 2 << 10
	cfg.LogPageSize = 4 << 20
	cfg.UpdateThreshold = 1 << 30
	cfg.StableBytes = 64 << 20
	return newHarness(t, cfg)
}

// logTxn runs one transaction of k records with the given payload
// through the SLB: begin, write, commit.
func (h *harness) logTxn(txn uint64, k int, data []byte) {
	h.t.Helper()
	// The concrete chain: through the interface r would escape, and the
	// allocation tests would count the test's own records.
	c := h.m.slb.BeginTxn(txn).(*txnChain)
	for i := 0; i < k; i++ {
		r := wal.Record{Tag: wal.TagRelWrite, Txn: txn, PID: addr.PartitionID{Segment: 2},
			Slot: addr.Slot(i), Data: data}
		mustOK(h.t, c.WriteRecord(&r))
	}
	mustOK(h.t, c.Commit())
}

// chainBlocks returns the blocks of an uncommitted chain.
func chainBlocks(c txn.RedoChain) []*stablemem.Block {
	return append([]*stablemem.Block(nil), c.(*txnChain).blocks...)
}

// TestWriteRecordAllocatesNothing: a record is encoded straight into its
// SLB block, and a sorted chain's blocks and chain come back from the
// pool, so once warm a WriteRecord → commit → drain cycle allocates as
// much with many records as with one: nothing per record, for records
// under and over SLBBlockSize.
func TestWriteRecordAllocatesNothing(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	h := poolHarness(t)
	defer h.m.Stop()
	txn := uint64(0)
	for _, c := range []struct {
		size, many int // 64 small records span four blocks
	}{{100, 64}, {3 << 10, 8}} {
		data := bytes.Repeat([]byte{7}, c.size)
		cycle := func(k int) func() {
			return func() {
				txn++
				h.logTxn(txn, k, data)
				h.drain()
			}
		}
		one, many := cycle(1), cycle(c.many)
		for i := 0; i < 4; i++ { // warm the pools and the bin's page
			many()
		}
		a1 := testing.AllocsPerRun(20, one)
		aMany := testing.AllocsPerRun(20, many)
		if aMany != a1 {
			t.Fatalf("%d-byte records: a %d-record cycle allocates %.0f times, a 1-record cycle %.0f",
				c.size, c.many, aMany, a1)
		}
	}
}

// TestSLBReturnsEveryBlock: over many committed-and-sorted and aborted
// transactions, stable memory's Used comes back to where it started;
// the pool changes nothing in the capacity accounting.
func TestSLBReturnsEveryBlock(t *testing.T) {
	h := poolHarness(t)
	defer h.m.Stop()
	data := bytes.Repeat([]byte{3}, 700)
	h.logTxn(1, 9, data) // the bin and its page buffer exist from here
	h.drain()
	used := h.hw.Stable.Used()
	for txn := uint64(2); txn < 300; txn++ {
		if txn%3 == 0 {
			c := h.m.slb.BeginTxn(txn)
			r := wal.Record{Tag: wal.TagRelWrite, Txn: txn, PID: addr.PartitionID{Segment: 2}, Data: data}
			mustOK(t, c.WriteRecord(&r))
			c.Abort()
			continue
		}
		h.logTxn(txn, int(txn%11), data)
		h.drain()
		if got := h.hw.Stable.Used(); got != used {
			t.Fatalf("txn %d: Used() = %d, want %d", txn, got, used)
		}
	}
	if got := h.hw.Stable.Used(); got != used {
		t.Fatalf("Used() = %d after the run, want %d", got, used)
	}
}

// TestDiscardedChainIsNeverReissued: restart drops the uncommitted
// chains by freeing their blocks, never recycling them, since a dead
// instance's goroutine may still append to them. None is handed to a
// later transaction, and an append to one fails instead of landing. The
// dead chains themselves refuse writes and commits without drawing on
// stable memory.
func TestDiscardedChainIsNeverReissued(t *testing.T) {
	h := poolHarness(t)
	data := bytes.Repeat([]byte{5}, 900)
	var discarded []*stablemem.Block
	var chains []txn.RedoChain
	for id := uint64(1); id <= 2; id++ {
		c := h.m.slb.BeginTxn(id)
		for i := 0; i < 5; i++ {
			r := wal.Record{Tag: wal.TagRelWrite, Txn: id, PID: addr.PartitionID{Segment: 2}, Data: data}
			mustOK(t, c.WriteRecord(&r))
		}
		discarded = append(discarded, chainBlocks(c)...)
		chains = append(chains, c)
	}
	h.powerOff()
	h.powerOn()
	defer h.m.Stop()
	for _, ls := range h.m.slb.st.streams {
		if n := len(ls.uncommitted) + len(ls.committed); n != 0 {
			t.Fatalf("stream %d keeps %d chains after restart", ls.id, n)
		}
	}
	gone := map[*stablemem.Block]bool{}
	for _, b := range discarded {
		gone[b] = true
		if err := b.Append([]byte("late")); err == nil {
			t.Fatal("an append to a discarded block landed")
		}
	}
	// The dead instance's chains refuse writes and commits, and draw
	// nothing from the pool.
	used := h.hw.Stable.Used()
	for _, c := range chains {
		r := wal.Record{Tag: wal.TagRelWrite, Txn: 1, PID: addr.PartitionID{Segment: 2}, Data: data}
		if err := c.WriteRecord(&r); err == nil {
			t.Fatal("a dead instance's chain took a write")
		}
		c.Abort()
	}
	if err := chains[0].Commit(); err == nil {
		t.Fatal("a dead instance's chain committed")
	}
	if got := h.hw.Stable.Used(); got != used {
		t.Fatalf("dead chains moved Used() from %d to %d", used, got)
	}
	for id := uint64(100); id < 400; id++ {
		c := h.m.slb.BeginTxn(id)
		r := wal.Record{Tag: wal.TagRelWrite, Txn: id, PID: addr.PartitionID{Segment: 2}, Data: data}
		mustOK(t, c.WriteRecord(&r))
		for _, b := range chainBlocks(c) {
			if gone[b] {
				t.Fatalf("txn %d was handed a block restart discarded", id)
			}
		}
		c.Abort()
	}
}

// TestRecycledBlockHoldsOnlyItsChain: a block a sorted chain gave back
// holds its old bytes past Len; the next chain to draw it sees, sorts
// and replays its own records only.
func TestRecycledBlockHoldsOnlyItsChain(t *testing.T) {
	h := poolHarness(t)
	defer h.m.Stop()
	big := bytes.Repeat([]byte{0xAA}, 150)
	small := []byte("b")
	reused := 0
	for i := uint64(0); i < 50; i++ {
		a, b := 2*i+1, 2*i+2
		ca := h.m.slb.BeginTxn(a)
		for k := 0; k < 10; k++ {
			r := wal.Record{Tag: wal.TagRelWrite, Txn: a, PID: addr.PartitionID{Segment: 2}, Data: big}
			mustOK(t, ca.WriteRecord(&r))
		}
		old := chainBlocks(ca)[0]
		mustOK(t, ca.Commit())
		h.drain()

		cb := h.m.slb.BeginTxn(b)
		want := wal.Record{Tag: wal.TagRelWrite, Txn: b, PID: addr.PartitionID{Segment: 2}, Slot: 9, Data: small}
		mustOK(t, cb.WriteRecord(&want))
		blks := chainBlocks(cb)
		if blks[0] == old {
			reused++
		}
		recs, err := wal.DecodeAll(blks[0].Bytes())
		if err != nil || len(recs) != 1 || recs[0].Txn != b || !bytes.Equal(recs[0].Data, small) {
			t.Fatalf("txn %d's block decodes to %d records (%v), want its one record", b, len(recs), err)
		}
		if blks[0].Len() != want.EncodedSize() {
			t.Fatalf("txn %d's block holds %d bytes, want %d", b, blks[0].Len(), want.EncodedSize())
		}
		mustOK(t, cb.Commit())
		h.drain()
	}
	if reused == 0 && !raceBuild() {
		t.Fatal("no sorted chain's block was ever reissued")
	}
}

// TestWriteRecordHitsEachFaultPointOncePerRecord: encoding in place
// keeps the fault points where they were, one "slb.append" and one
// "stable.append" hit per record, under and over SLBBlockSize, so a
// pinned plan's hit index names the same record as before.
func TestWriteRecordHitsEachFaultPointOncePerRecord(t *testing.T) {
	h := poolHarness(t)
	defer h.m.Stop()
	c := h.m.slb.BeginTxn(1)
	sizes := []int{10, 1500, 3000, 10, 5000}
	for i, n := range sizes {
		r := wal.Record{Tag: wal.TagRelWrite, Txn: 1, PID: addr.PartitionID{Segment: 2}, Slot: addr.Slot(i),
			Data: bytes.Repeat([]byte{1}, n)}
		mustOK(t, c.WriteRecord(&r))
	}
	hits := h.cfg.FaultInjector.Hits()
	slbHits, stableHits := hits[fault.PointSLBAppend], hits[fault.PointStableAppend]
	if slbHits != int64(len(sizes)) || stableHits != int64(len(sizes)) {
		t.Fatalf("%d records hit slb.append %d times and stable.append %d times", len(sizes), slbHits, stableHits)
	}
}
