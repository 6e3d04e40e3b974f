package core

import (
	"bytes"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/wal"
)

// binBytes concatenates what the partition's bin holds: the records of
// every flushed page in its page list, then the current page buffer.
func (h *harness) binBytes(pid addr.PartitionID) []byte {
	h.t.Helper()
	var out []byte
	for _, b := range h.m.BinStates() {
		if b.PID != pid {
			continue
		}
		for _, lsn := range b.Pages {
			pg, _, err := readLogPage(h.hw.Log, lsn, &pid)
			mustOK(h.t, err)
			out = append(out, pg.Records...)
		}
	}
	for _, r := range h.m.BinResidues() {
		if r.PID == pid {
			out = append(out, r.Records...)
		}
	}
	return out
}

// TestSorterCopiesRecordBytes: the bytes a record has in the SLB are the
// bytes its bin stores, flushed pages and residue alike, whether the
// commit drain sorted the chain or Restart's drain re-sorted it after a
// crash. Every record lands as written: nothing is folded or dropped.
func TestSorterCopiesRecordBytes(t *testing.T) {
	pids := []addr.PartitionID{{Segment: 2, Part: 0}, {Segment: 2, Part: 1}}
	// setup returns a harness that is not started (the test runs the
	// sorter), the SLB bytes each bin must hold, and a committer that
	// adds to them.
	setup := func(t *testing.T) (*harness, map[addr.PartitionID][]byte, func(uint64, []wal.Record)) {
		cfg := testCfg()
		cfg.UpdateThreshold = 1 << 20 // no checkpoint drops a page
		h := newHarness(t, cfg)
		want := map[addr.PartitionID][]byte{}
		commit := func(txn uint64, recs []wal.Record) {
			mustOK(t, h.m.InjectCommitted(txn, recs))
			for _, r := range recs {
				want[r.PID] = r.Encode(want[r.PID]) // what WriteRecord put in the SLB
			}
		}
		return h, want, commit
	}
	check := func(t *testing.T, h *harness, want map[addr.PartitionID][]byte) {
		for _, pid := range pids {
			if got := h.binBytes(pid); !bytes.Equal(got, want[pid]) {
				t.Fatalf("bin %v holds %d bytes that differ from the %d SLB bytes", pid, len(got), len(want[pid]))
			}
		}
	}
	t.Run("plain", func(t *testing.T) {
		h, want, commit := setup(t)
		updates := func(txn uint64) {
			var recs []wal.Record
			for i := 0; i < 5; i++ {
				recs = append(recs, wal.Record{
					Tag: wal.TagRelUpdate, PID: pids[i%2], Slot: addr.Slot(i),
					Data: bytes.Repeat([]byte{byte(txn)}, int(txn)%24),
				})
			}
			commit(1000+txn, recs)
		}
		for txn := uint64(1); txn <= 40; txn++ {
			updates(txn)
		}
		h.m.drainCommitted()
		if pages := h.m.Metrics().PagesFlushed.Value(); pages < 4 {
			t.Fatalf("%d pages flushed by the commit drain; the test means to cover flushed pages", pages)
		}
		// Committed and sealed but not sorted at the crash: Restart's
		// drain re-sorts these after the bytes sorted before it.
		for txn := uint64(41); txn <= 80; txn++ {
			updates(txn)
		}
		h.powerOff()
		h.powerOn()
		defer h.m.Stop()
		if pages := h.m.Metrics().PagesFlushed.Value(); pages < 4 {
			t.Fatalf("%d pages flushed by the restart re-sort; the test means to cover flushed pages", pages)
		}
		check(t, h, want)
	})
	// The chain an accumulating sorter used to fold: it rewrites and
	// deletes what it wrote. Two writes to one slot stay two records, and
	// an insert and its delete both stay.
	t.Run("accumulated", func(t *testing.T) {
		h, want, commit := setup(t)
		defer h.m.Stop()
		rec := func(tag wal.Tag, slot addr.Slot, off uint16, data string) wal.Record {
			return wal.Record{Tag: tag, PID: pids[0], Slot: slot, Off: off, Data: []byte(data)}
		}
		recs := []wal.Record{
			rec(wal.TagRelInsert, 1, 0, "abcdef"),
			rec(wal.TagRelWrite, 1, 2, "XY"),
			rec(wal.TagRelUpdate, 2, 0, "kept as written"),
			rec(wal.TagRelInsert, 3, 0, "gone"),
			rec(wal.TagRelDelete, 3, 0, ""),
			rec(wal.TagRelWrite, 2, 0, "K"),
			rec(wal.TagRelWrite, 4, 1, "w1"),
			rec(wal.TagRelWrite, 4, 3, "w2"),
		}
		commit(7, recs)
		h.m.drainCommitted()
		check(t, h, want)
		got, err := wal.DecodeAll(h.binBytes(pids[0]))
		mustOK(t, err)
		if len(got) != len(recs) {
			t.Fatalf("bin holds %d records, the chain wrote %d", len(got), len(recs))
		}
	})
}

// TestSortAllocatesNothingPerRecord: sorting copies each record's bytes
// into its bin and builds nothing per record, so a 64-record chain costs
// the allocations a 1-record chain does.
func TestSortAllocatesNothingPerRecord(t *testing.T) {
	cfg := testCfg()
	cfg.LogPageSize = 256 << 10 // no page fills while the runs repeat
	cfg.UpdateThreshold = 1 << 30
	h := newHarness(t, cfg) // not started: the test is the sorter
	defer h.m.Stop()
	pids := []addr.PartitionID{{Segment: 2, Part: 0}, {Segment: 2, Part: 1}}
	chain := func(txn uint64, n int) *txnChain {
		h.m.slb.BeginTxn(txn)
		for i := 0; i < n; i++ {
			r := wal.Record{Tag: wal.TagRelWrite, Txn: txn, PID: pids[i%2],
				Slot: addr.Slot(i), Off: 4, Data: []byte("12345678")}
			mustOK(t, h.m.slb.WriteRecord(&r))
		}
		return h.m.slb.streamFor(txn).uncommitted[txn]
	}
	one, many := chain(1, 1), chain(2, 64)
	mustOK(t, h.m.sortChain(many)) // both bins and their page buffers exist
	allocs := func(c *txnChain) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := h.m.sortChain(c); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a1, a64 := allocs(one), allocs(many); a64 != a1 {
		t.Fatalf("sorting 64 records allocates %.0f times, 1 record %.0f", a64, a1)
	}
}
