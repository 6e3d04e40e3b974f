package core

import (
	"bytes"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/mm"
	"mmdb/internal/wal"
)

// Restart no longer walks every bin's page buffer; a tail the crash
// tore is cut the first time the incarnation touches the bin. These
// tests plant the damage between power-off and power-on and then drive
// each first touch.

// powerOff halts the machine and discards the volatile state; the test
// then edits stable memory as the crash might have left it.
func (h *harness) powerOff() {
	h.cfg.FaultInjector.ForceCrash()
	h.m.Stop()
	h.cfg.FaultInjector.Reset()
}

// powerOn attaches a new incarnation and runs Restart, nothing else: no
// recovery CPU, no checkpointer, no sweep, so the only touches are the
// ones the test makes.
func (h *harness) powerOn() {
	h.t.Helper()
	h.attach()
	if _, err := h.m.Restart(); err != nil {
		h.t.Fatal(err)
	}
	h.m.Resume()
}

// stableBin reaches the partition's bin in stable memory directly.
func (h *harness) stableBin(pid addr.PartitionID) *bin {
	h.t.Helper()
	b := h.hw.Stable.Root(sltRootKey).(*sltState).bins[pid]
	if b == nil || b.cur == nil {
		h.t.Fatalf("no bin buffer for %v", pid)
	}
	return b
}

// flush writes the bin's current page the way a checkpoint's fence does
// (the fence serves a request, so one is raised first).
func (h *harness) flush(pid addr.PartitionID) {
	h.t.Helper()
	h.m.RequestCheckpoint(pid)
	mustOK(h.t, h.m.fence(pid))
}

// marked reports whether the bin carries this incarnation's mark.
func (h *harness) marked(b *bin) bool { return b.checked == h.m.slt.st.boot }

// tear appends all but the last three bytes of an update record, as a
// crash in the middle of the sorter's append would.
func (h *harness) tear(b *bin, a addr.EntityAddr) {
	h.t.Helper()
	enc := (&wal.Record{Tag: wal.TagRelUpdate, Txn: 99,
		PID: b.pid, Slot: a.Slot, Data: []byte("torn-away")}).Encode(nil)
	mustOK(h.t, b.cur.Append(enc[:len(enc)-3]))
}

// rot flips one payload bit of the buffer's last record: the bytes
// still parse, the CRC no longer agrees. It returns the offset the cut
// must land on.
func (h *harness) rot(b *bin) int {
	h.t.Helper()
	buf := b.cur.Bytes()
	last := 0
	for w := wal.Walk(buf); w.Next(); {
		if w.Clean() < len(buf) {
			last = w.Clean()
		}
	}
	buf[len(buf)-5] ^= 0x10
	return last
}

func (h *harness) wantCounts(when string, torn, corrupt, quarantined int64) {
	h.t.Helper()
	mt := h.m.metrics
	if g := [3]int64{mt.TornTailCuts.Value(), mt.CorruptDetected.Value(), mt.QuarantinedRecords.Value()}; g != [3]int64{torn, corrupt, quarantined} {
		h.t.Fatalf("%s: torn/corrupt/quarantined = %v, want [%d %d %d]", when, g, torn, corrupt, quarantined)
	}
}

func (h *harness) wantEntity(a addr.EntityAddr, want string) {
	h.t.Helper()
	p, err := h.store.Partition(a.Partition())
	mustOK(h.t, err)
	got, err := p.Read(a.Slot)
	if err != nil || string(got) != want {
		h.t.Fatalf("entity %v = %q, %v; want %q", a, got, err, want)
	}
}

// sortedEntity leaves one entity whose records are all sorted into its
// bin's page buffer, the sorter having been run by hand.
func sortedEntity(t *testing.T) (*harness, addr.EntityAddr) {
	h := newHarness(t, testCfg())
	a := h.insert(h.seg(), []byte("v0"))
	h.update(a, []byte("v1"))
	h.drain()
	return h, a
}

func TestLazyCutOnDemand(t *testing.T) {
	h, a := sortedEntity(t)
	h.powerOff()
	b := h.stableBin(a.Partition())
	clean := b.cur.Len()
	h.tear(b, a)
	h.powerOn()
	defer h.m.Stop()
	if h.marked(b) || b.cur.Len() == clean {
		t.Fatalf("Restart touched the bin: marked %v, %d bytes (clean %d)", h.marked(b), b.cur.Len(), clean)
	}
	h.wantCounts("after Restart", 0, 0, 0)
	h.wantEntity(a, "v1") // the clean prefix, not the torn update
	if !h.marked(b) || b.cur.Len() != clean {
		t.Fatalf("after demand: marked %v, %d bytes, want the %d clean ones", h.marked(b), b.cur.Len(), clean)
	}
	h.wantCounts("after demand", 1, 0, 0)
	// Later touches find the mark and leave the counters alone.
	h.m.BinResidues()
	h.flush(a.Partition())
	h.wantCounts("after later touches", 1, 0, 0)
}

func TestLazyCutOnResort(t *testing.T) {
	h, a := sortedEntity(t)
	h.update(a, []byte("v2")) // committed, never sorted: Restart re-sorts it
	h.powerOff()
	b := h.stableBin(a.Partition())
	h.tear(b, a)
	h.powerOn()
	defer h.m.Stop()
	if !h.marked(b) {
		t.Fatal("the re-sort appended to an unchecked bin")
	}
	h.wantCounts("after Restart", 1, 0, 0)
	recs, err := wal.DecodeAll(b.cur.Bytes())
	if err != nil {
		t.Fatalf("buffer after the re-sort is not a clean concatenation: %v", err)
	}
	if last := recs[len(recs)-1]; string(last.Data) != "v2" {
		t.Fatalf("last record in the buffer carries %q, want the re-sorted v2", last.Data)
	}
	// The page the bin later flushes decodes and replays.
	h.flush(a.Partition())
	pages, err := h.m.binPages(a.Partition(), b.pages)
	if err != nil || len(pages) != 1 {
		t.Fatalf("flushed pages = %d, %v", len(pages), err)
	}
	p := mm.NewPartition(a.Partition(), h.cfg.PartitionSize)
	mustReplay(t, p, pages[0].recs)
	if got, err := p.Read(a.Slot); err != nil || string(got) != "v2" {
		t.Fatalf("replayed page gives %q, %v", got, err)
	}
	h.wantEntity(a, "v2")
	h.wantCounts("after demand", 1, 0, 0)
}

func TestLazyCutCountsRotOnce(t *testing.T) {
	touches := map[string]func(h *harness, a addr.EntityAddr){
		"demand":   func(h *harness, a addr.EntityAddr) { h.wantEntity(a, "v0") },
		"residues": func(h *harness, a addr.EntityAddr) { h.m.BinResidues() },
		"flush":    func(h *harness, a addr.EntityAddr) { h.flush(a.Partition()) },
	}
	for _, first := range []string{"demand", "residues", "flush"} {
		t.Run(first+"-first", func(t *testing.T) {
			h, a := sortedEntity(t)
			h.powerOff()
			b := h.stableBin(a.Partition())
			cut := h.rot(b)
			h.powerOn()
			defer h.m.Stop()
			h.wantCounts("after Restart", 0, 0, 0)
			touches[first](h, a)
			if first != "flush" && b.cur.Len() != cut {
				t.Fatalf("buffer cut to %d, want %d", b.cur.Len(), cut)
			}
			h.wantCounts("after the first touch", 0, 1, 1)
			for _, name := range []string{"residues", "demand", "flush"} {
				touches[name](h, a)
			}
			h.wantCounts("after every touch", 0, 1, 1)
		})
	}
	t.Run("resort-first", func(t *testing.T) {
		h, a := sortedEntity(t)
		b := h.stableBin(a.Partition())
		h.update(a, []byte("v0")) // unsorted; the value the rot leaves behind
		h.powerOff()
		h.rot(b)
		h.powerOn()
		defer h.m.Stop()
		h.wantCounts("after Restart", 0, 1, 1)
		h.wantEntity(a, "v0")
		h.wantCounts("after demand", 0, 1, 1)
	})
}

func TestLazyCutMarkForgottenByCrash(t *testing.T) {
	h, a := sortedEntity(t)
	// A second, clean bin that the first incarnation does touch, to see
	// its mark forgotten as well.
	other := h.insert(h.seg(), []byte("other"))
	h.drain()
	h.powerOff()
	b, ob := h.stableBin(a.Partition()), h.stableBin(other.Partition())
	clean := b.cur.Len()
	h.tear(b, a)
	h.powerOn()
	h.wantEntity(other, "other")
	if !h.marked(ob) || h.marked(b) {
		t.Fatalf("marks before the second crash: touched %v, torn %v", h.marked(ob), h.marked(b))
	}
	h.powerOff()
	h.powerOn()
	defer h.m.Stop()
	if h.marked(ob) || h.marked(b) || b.cur.Len() == clean {
		t.Fatalf("second incarnation: touched %v, torn %v, %d bytes", h.marked(ob), h.marked(b), b.cur.Len())
	}
	h.wantCounts("second Restart", 0, 0, 0)
	h.wantEntity(a, "v1")
	if b.cur.Len() != clean {
		t.Fatalf("buffer is %d bytes, want %d", b.cur.Len(), clean)
	}
	h.wantCounts("second incarnation's demand", 1, 0, 0)
}

func TestRestartLeavesBinTailsUnread(t *testing.T) {
	cfg := testCfg()
	cfg.PartitionSize = 16 << 10
	cfg.LogPageSize = 8 << 10
	cfg.UpdateThreshold = 1 << 20
	h := newHarness(t, cfg)
	const bins = 64
	var ents []addr.EntityAddr
	for s := 0; s < bins; s++ {
		seg := h.seg()
		for j := 0; j < 6; j++ {
			ents = append(ents, h.insert(seg, bytes.Repeat([]byte{byte(s)}, 400)))
		}
	}
	h.drain()
	h.powerOff()
	h.powerOn()
	defer h.m.Stop()
	st := h.m.slt.st
	countMarked := func() (n int) {
		for _, b := range st.bins {
			if b.cur.Len() < 2<<10 {
				t.Fatalf("bin %v holds %d bytes, want a multi-KB tail", b.pid, b.cur.Len())
			}
			if h.marked(b) {
				n++
			}
		}
		return n
	}
	if len(st.bins) != bins {
		t.Fatalf("%d bins, want %d", len(st.bins), bins)
	}
	if n := countMarked(); n != 0 {
		t.Fatalf("Restart checked %d of %d tails with nothing to re-sort", n, bins)
	}
	if refs := h.m.metrics.SimStableRefs.Value(); refs > 4<<10 {
		t.Fatalf("Restart made %d stable-memory references over %d bins of 2 KB+", refs, bins)
	}
	want := ents[7*6]
	h.wantEntity(want, string(bytes.Repeat([]byte{7}, 400)))
	if n := countMarked(); n != 1 || !h.marked(st.bins[want.Partition()]) {
		t.Fatalf("demanding one partition marked %d bins", n)
	}
}
