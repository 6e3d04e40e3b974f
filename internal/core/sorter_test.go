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
// bytes its bin stores, whether the commit drain sorted the chain or
// Restart's drain re-sorted it after a crash. The current page buffer
// holds every record as written; a flushed page holds the records of its
// buffer that survive the fold (refFold), byte for byte, and all of
// them when nothing folds.
func TestSorterCopiesRecordBytes(t *testing.T) {
	pids := []addr.PartitionID{{Segment: 2, Part: 0}, {Segment: 2, Part: 1}}
	// setup returns a harness that is not started (the test runs the
	// sorter), the records each bin was sent and a committer that adds
	// to them.
	setup := func(t *testing.T) (*harness, map[addr.PartitionID][][]byte, func(uint64, []wal.Record)) {
		cfg := testCfg()
		cfg.UpdateThreshold = 1 << 20 // no checkpoint drops a page
		h := newHarness(t, cfg)
		sent := map[addr.PartitionID][][]byte{}
		commit := func(txn uint64, recs []wal.Record) {
			mustOK(t, h.m.InjectCommitted(txn, recs))
			for _, r := range recs {
				sent[r.PID] = append(sent[r.PID], r.Encode(nil)) // what WriteRecord put in the SLB
			}
		}
		return h, sent, commit
	}
	// want pages a bin's records as the sorter does, a page closing when
	// the next record does not fit, and folds every closed page.
	want := func(t *testing.T, h *harness, recs [][]byte) []byte {
		var out, page []byte
		for _, enc := range recs {
			if len(page)+len(enc) > h.cfg.LogPageSize {
				out = append(out, refFoldBytes(t, page)...)
				page = page[:0]
			}
			page = append(page, enc...)
		}
		return append(out, page...)
	}
	check := func(t *testing.T, h *harness, sent map[addr.PartitionID][][]byte) {
		for _, pid := range pids {
			if got, want := h.binBytes(pid), want(t, h, sent[pid]); !bytes.Equal(got, want) {
				t.Fatalf("bin %v holds %d bytes that differ from the %d the folded SLB bytes make", pid, len(got), len(want))
			}
		}
	}
	t.Run("plain", func(t *testing.T) {
		h, sent, commit := setup(t)
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
		h.drain()
		if pages := h.m.Metrics().PagesFlushed.Value(); pages < 4 {
			t.Fatalf("%d pages flushed by the commit drain; the test means to cover flushed pages", pages)
		}
		if folded := h.m.Metrics().RecordsFolded.Value(); folded == 0 {
			t.Fatal("no record folded; the test means to cover folded pages")
		}
		// Committed but not sorted at the crash: Restart's
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
		check(t, h, sent)
	})
	// Writes at distinct offsets, which nothing supersedes: the flushed
	// pages hold exactly the SLB bytes.
	t.Run("nothing folds", func(t *testing.T) {
		h, sent, commit := setup(t)
		defer h.m.Stop()
		for txn := uint64(1); txn <= 60; txn++ {
			commit(txn, []wal.Record{{Tag: wal.TagRelWrite, PID: pids[0], Slot: 3, Off: uint16(txn), Data: []byte("12345678")}})
		}
		h.drain()
		var all []byte
		for _, enc := range sent[pids[0]] {
			all = append(all, enc...)
		}
		if got := h.binBytes(pids[0]); !bytes.Equal(got, all) {
			t.Fatalf("bin holds %d bytes that differ from the %d SLB bytes", len(got), len(all))
		}
		if pages, folded := h.m.Metrics().PagesFlushed.Value(), h.m.Metrics().RecordsFolded.Value(); pages < 2 || folded != 0 {
			t.Fatalf("%d pages flushed, %d records folded; want some pages and no fold", pages, folded)
		}
	})
	// A chain that rewrites and deletes what it wrote, then enough
	// further writes to flush its page.
	t.Run("accumulated", func(t *testing.T) {
		h, sent, commit := setup(t)
		defer h.m.Stop()
		rec := func(tag wal.Tag, slot addr.Slot, off uint16, data string) wal.Record {
			return wal.Record{Tag: tag, PID: pids[0], Slot: slot, Off: off, Data: []byte(data)}
		}
		recs := []wal.Record{
			rec(wal.TagRelInsert, 1, 0, "abcdef"),
			rec(wal.TagRelWrite, 1, 2, "XY"), // folds: rewritten below
			rec(wal.TagRelUpdate, 2, 0, "kept: no size before it"),
			rec(wal.TagRelInsert, 3, 0, "gone"),
			rec(wal.TagRelDelete, 3, 0, ""),
			rec(wal.TagRelWrite, 2, 0, "K"), // folds: slot 2 is replaced below
			rec(wal.TagRelWrite, 4, 1, "w1"),
			rec(wal.TagRelWrite, 4, 3, "w2"),
			rec(wal.TagRelWrite, 1, 2, "ZW"),
			rec(wal.TagRelUpdate, 2, 0, "final image"),
		}
		commit(7, recs)
		for txn := uint64(8); txn < 40; txn++ {
			commit(txn, []wal.Record{rec(wal.TagRelWrite, 9, uint16(txn), "filler")})
		}
		h.drain()
		check(t, h, sent)
		var page []byte
		for _, b := range h.m.BinStates() {
			if b.PID == pids[0] && len(b.Pages) > 0 {
				pg, _, err := readLogPage(h.hw.Log, b.Pages[0], &pids[0])
				mustOK(t, err)
				page = pg.Records
			}
		}
		got, err := wal.DecodeAll(page)
		mustOK(t, err)
		if len(got) < 8 || got[1].Tag != wal.TagRelUpdate || got[4].Tag != wal.TagRelWrite || string(got[6].Data) != "ZW" {
			t.Fatalf("first flushed page starts %v; want the chain less its two superseded writes", got[:min(len(got), 8)])
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
		c := h.m.slb.BeginTxn(txn)
		for i := 0; i < n; i++ {
			r := wal.Record{Tag: wal.TagRelWrite, Txn: txn, PID: pids[i%2],
				Slot: addr.Slot(i), Off: 4, Data: []byte("12345678")}
			mustOK(t, c.WriteRecord(&r))
		}
		return c.(*txnChain)
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
