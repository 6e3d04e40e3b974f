package core

import (
	"bytes"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/catalog"
	"mmdb/internal/simdisk"
	"mmdb/internal/wal"
)

func TestRootCountersSurviveCrash(t *testing.T) {
	h := newHarness(t, testCfg())
	if got := h.m.AllocRelID(); got != catalog.FirstUserRelID {
		t.Fatalf("first rel id = %d", got)
	}
	if got := h.m.AllocRelID(); got != catalog.FirstUserRelID+1 {
		t.Fatalf("second rel id = %d", got)
	}
	idx1 := h.m.AllocIdxID()
	seg1 := h.m.AllocSegID()
	if seg1 < addr.FirstUserSegment {
		t.Fatalf("seg id %d in reserved range", seg1)
	}
	h.crash()
	defer h.m.Stop()
	// Counters are stable state: never reused across crashes.
	if got := h.m.AllocRelID(); got != catalog.FirstUserRelID+2 {
		t.Fatalf("post-crash rel id = %d", got)
	}
	if got := h.m.AllocIdxID(); got != idx1+1 {
		t.Fatalf("post-crash idx id = %d", got)
	}
	if got := h.m.AllocSegID(); got != seg1+1 {
		t.Fatalf("post-crash seg id = %d", got)
	}
}

func TestCatalogPartRegistration(t *testing.T) {
	h := newHarness(t, testCfg())
	defer h.m.Stop()
	pid := addr.PartitionID{Segment: addr.SegRelationCatalog, Part: 3}
	if got := h.m.LocateCatalogPart(pid); got != simdisk.NilTrack {
		t.Fatalf("unregistered part located at %d", got)
	}
	h.m.AddCatalogPart(pid)
	if got := h.m.LocateCatalogPart(pid); got != simdisk.NilTrack {
		t.Fatalf("fresh part should have NilTrack, got %d", got)
	}
	root := h.m.RootCopy()
	if len(root.RelCatParts) != 1 || root.RelCatParts[0].Part != 3 {
		t.Fatalf("root = %+v", root)
	}
	// Index catalog side too.
	ipid := addr.PartitionID{Segment: addr.SegIndexCatalog, Part: 0}
	h.m.AddCatalogPart(ipid)
	if len(h.m.RootCopy().IdxCatParts) != 1 {
		t.Fatal("index catalog part not registered")
	}
	// Non-catalog segments are rejected by setRootTrack (no-op).
	h.m.AddCatalogPart(addr.PartitionID{Segment: 9, Part: 0})
	r := h.m.RootCopy()
	if len(r.RelCatParts)+len(r.IdxCatParts) != 2 {
		t.Fatalf("non-catalog segment registered: %+v", r)
	}
}

func TestRootSentinelAndWriteToLog(t *testing.T) {
	h := newHarness(t, testCfg())
	defer h.m.Stop()
	pid := RootSentinelPID()
	if pid.Segment != 0xFFFFFF {
		t.Fatalf("sentinel = %v", pid)
	}
	root := h.m.RootCopy()
	root.NextRelID = 42
	if err := h.m.writeRootToLog(root); err != nil {
		t.Fatal(err)
	}
	raw, err := h.hw.Log.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := wal.DecodePage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if pg.PID != pid {
		t.Fatalf("page pid = %v", pg.PID)
	}
	got, err := catalog.DecodeRoot(pg.Records)
	if err != nil || got.NextRelID != 42 {
		t.Fatalf("root round trip: %+v, %v", got, err)
	}
}

func TestBinResiduesSnapshot(t *testing.T) {
	h := newHarness(t, testCfg())
	h.start()
	defer h.m.Stop()
	seg := h.seg()
	a := h.insert(seg, []byte("residue-me"))
	h.m.WaitIdle()
	res := h.m.BinResidues()
	if len(res) == 0 {
		t.Fatal("no residues for unflushed bin")
	}
	found := false
	for _, r := range res {
		if r.PID == a.Partition() {
			found = true
			recs, err := wal.DecodeAll(r.Records)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				t.Fatal("empty residue records")
			}
		}
	}
	if !found {
		t.Fatalf("partition %v missing from residues", a.Partition())
	}
}

func TestInjectCommittedFlowsThroughSorter(t *testing.T) {
	h := newHarness(t, testCfg())
	h.start()
	defer h.m.Stop()
	h.store.EnsureSegment(2)
	if _, err := h.store.AllocPartitionAt(addr.PartitionID{Segment: 2, Part: 0}); err != nil {
		t.Fatal(err)
	}
	recs := []wal.Record{
		{Tag: wal.TagRelInsert, PID: addr.PartitionID{Segment: 2, Part: 0}, Slot: 0, Data: []byte("inj")},
	}
	if err := h.m.InjectCommitted(77, recs); err != nil {
		t.Fatal(err)
	}
	h.m.WaitIdle()
	if h.m.Metrics().RecordsSorted.Value() != 1 {
		t.Fatalf("sorted %d", h.m.Metrics().RecordsSorted.Value())
	}
	// And it is recoverable.
	p, err := h.m.restorePartition(addr.PartitionID{Segment: 2, Part: 0}, simdisk.NilTrack)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(0)
	if err != nil || !bytes.Equal(got, []byte("inj")) {
		t.Fatalf("recovered %q, %v", got, err)
	}
}
