package txn

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/lock"
	"mmdb/internal/mm"
	"mmdb/internal/ttree"
	"mmdb/internal/wal"
)

// fakeSink records REDO traffic per transaction.
type fakeSink struct {
	mu        sync.Mutex
	chains    map[uint64][]wal.Record
	committed []uint64
	aborted   []uint64
	failWrite bool
}

func newFakeSink() *fakeSink { return &fakeSink{chains: make(map[uint64][]wal.Record)} }

func (s *fakeSink) BeginTxn(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chains[id] = nil
}

func (s *fakeSink) WriteRecord(rec *wal.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failWrite {
		return errors.New("sink full")
	}
	r := *rec
	r.Data = append([]byte(nil), rec.Data...)
	s.chains[rec.Txn] = append(s.chains[rec.Txn], r)
	return nil
}

func (s *fakeSink) CommitTxn(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.committed = append(s.committed, id)
	return nil
}

func (s *fakeSink) AbortTxn(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aborted = append(s.aborted, id)
	delete(s.chains, id)
}

func newTestManager() (*Manager, *fakeSink, addr.SegmentID) {
	store := mm.NewStore(4096)
	sink := newFakeSink()
	m := NewManager(store, lock.NewManager(), sink)
	seg := store.CreateSegment()
	return m, sink, seg
}

func TestInsertReadCommit(t *testing.T) {
	m, sink, seg := newTestManager()
	tx := m.Begin()
	a, err := tx.InsertEntity(seg, false, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tx.ReadEntity(a)
	if err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("ReadEntity = %q, %v", got, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// REDO chain: PartAlloc + RelInsert.
	recs := sink.chains[tx.ID()]
	if len(recs) != 2 || recs[0].Tag != wal.TagPartAlloc || recs[1].Tag != wal.TagRelInsert {
		t.Fatalf("chain = %+v", recs)
	}
	if recs[1].Slot != a.Slot || !bytes.Equal(recs[1].Data, []byte("hello")) {
		t.Fatalf("insert record = %+v", recs[1])
	}
	if len(sink.committed) != 1 {
		t.Fatal("not committed in sink")
	}
	// Post-commit ops fail.
	if _, err := tx.ReadEntity(a); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("post-commit read: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestAbortRollsBackEverything(t *testing.T) {
	m, sink, seg := newTestManager()
	// Seed committed state.
	tx := m.Begin()
	a1, err := tx.InsertEntity(seg, false, []byte("keep-v1"))
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := tx.InsertEntity(seg, false, []byte("doomed"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := m.Begin()
	// update a1, write-at a1, delete a2, insert a3 — then abort.
	if err := tx2.UpdateEntity(a1, false, []byte("keep-v2!")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.WriteEntityAt(a1, false, 0, []byte("KEEP")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.DeleteEntity(a2); err != nil {
		t.Fatal(err)
	}
	a3, err := tx2.InsertEntity(seg, false, []byte("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	// Own-delete visibility before abort.
	if _, err := tx2.ReadEntity(a2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read of own-deleted: %v", err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if len(sink.aborted) != 1 {
		t.Fatal("abort not recorded in sink")
	}

	tx3 := m.Begin()
	defer tx3.Abort()
	got, err := tx3.ReadEntity(a1)
	if err != nil || !bytes.Equal(got, []byte("keep-v1")) {
		t.Fatalf("a1 after abort = %q, %v", got, err)
	}
	got, err = tx3.ReadEntity(a2)
	if err != nil || !bytes.Equal(got, []byte("doomed")) {
		t.Fatalf("a2 after abort = %q, %v", got, err)
	}
	if _, err := tx3.ReadEntity(a3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a3 after abort: %v", err)
	}
}

func TestDeferredDeleteAppliedAtCommit(t *testing.T) {
	m, _, seg := newTestManager()
	tx := m.Begin()
	a, _ := tx.InsertEntity(seg, false, []byte("x"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := m.Begin()
	if err := tx2.DeleteEntity(a); err != nil {
		t.Fatal(err)
	}
	// Physically still present until commit (other txns are excluded
	// by locks in real use; we peek directly at the store).
	p, _ := m.Store().Partition(a.Partition())
	if _, err := p.Read(a.Slot); err != nil {
		t.Fatal("tuple physically removed before commit")
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(a.Slot); err == nil {
		t.Fatal("tuple present after committed delete")
	}
	// Double delete of missing entity errors.
	tx3 := m.Begin()
	defer tx3.Abort()
	if err := tx3.DeleteEntity(a); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete of deleted: %v", err)
	}
}

func TestDeleteTwiceSameTxn(t *testing.T) {
	m, _, seg := newTestManager()
	tx := m.Begin()
	a, _ := tx.InsertEntity(seg, false, []byte("x"))
	if err := tx.DeleteEntity(a); err != nil {
		t.Fatal(err)
	}
	if err := tx.DeleteEntity(a); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateDeletedEntityFails(t *testing.T) {
	m, _, seg := newTestManager()
	tx := m.Begin()
	a, _ := tx.InsertEntity(seg, false, []byte("x"))
	if err := tx.DeleteEntity(a); err != nil {
		t.Fatal(err)
	}
	if err := tx.UpdateEntity(a, false, []byte("y")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update of own-deleted: %v", err)
	}
	if err := tx.WriteEntityAt(a, false, 0, []byte("z")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("write-at of own-deleted: %v", err)
	}
	tx.Abort()
}

func TestWriteAtBounds(t *testing.T) {
	m, _, seg := newTestManager()
	tx := m.Begin()
	defer tx.Abort()
	a, _ := tx.InsertEntity(seg, false, []byte("abcdef"))
	if err := tx.WriteEntityAt(a, false, 4, []byte("XYZ")); err == nil {
		t.Fatal("out-of-range WriteEntityAt succeeded")
	}
	if err := tx.WriteEntityAt(a, false, 2, []byte("XY")); err != nil {
		t.Fatal(err)
	}
	got, _ := tx.ReadEntity(a)
	if !bytes.Equal(got, []byte("abXYef")) {
		t.Fatalf("got %q", got)
	}
}

func TestPartitionOwnershipBlocksPlacement(t *testing.T) {
	m, _, seg := newTestManager()
	tx1 := m.Begin()
	a1, err := tx1.InsertEntity(seg, false, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	// tx2 must not place into tx1's uncommitted partition.
	tx2 := m.Begin()
	a2, err := tx2.InsertEntity(seg, false, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if a1.Part == a2.Part {
		t.Fatal("tx2 placed into tx1's uncommitted partition")
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	// After commit the partition is shared.
	tx3 := m.Begin()
	a3, err := tx3.InsertEntity(seg, false, []byte("third"))
	if err != nil {
		t.Fatal(err)
	}
	if a3.Part != a1.Part {
		t.Fatalf("tx3 did not reuse committed partition: %v vs %v", a3, a1)
	}
	tx3.Commit()
}

func TestAbortEvictsNewPartition(t *testing.T) {
	m, _, seg := newTestManager()
	tx := m.Begin()
	a, err := tx.InsertEntity(seg, false, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if m.Store().Resident(a.Partition()) {
		t.Fatal("aborted partition still resident")
	}
	// The dead partition's owner mark must not get in a successor's way.
	tx2 := m.Begin()
	if _, err := tx2.InsertEntity(seg, false, []byte("y")); err != nil {
		t.Fatalf("insert after an aborted partition allocation: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestOnPartAllocHook(t *testing.T) {
	m, _, seg := newTestManager()
	var got []addr.PartitionID
	m.OnPartAlloc = func(t *Txn, pid addr.PartitionID) error {
		got = append(got, pid)
		return nil
	}
	tx := m.Begin()
	if _, err := tx.InsertEntity(seg, false, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("hook called %d times", len(got))
	}
	tx.Commit()
}

func TestSinkFailureLeavesTxnAbortable(t *testing.T) {
	m, sink, seg := newTestManager()
	tx := m.Begin()
	a, err := tx.InsertEntity(seg, false, []byte("ok"))
	if err != nil {
		t.Fatal(err)
	}
	sink.failWrite = true
	if err := tx.UpdateEntity(a, false, []byte("boom")); err == nil {
		t.Fatal("update with failing sink succeeded")
	}
	sink.failWrite = false
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// Nothing remains.
	if m.Store().Resident(a.Partition()) {
		t.Fatal("partition survived aborted creator")
	}
}

func TestLargeEntityRejected(t *testing.T) {
	m, _, seg := newTestManager()
	tx := m.Begin()
	defer tx.Abort()
	if _, err := tx.InsertEntity(seg, false, make([]byte, 5000)); !errors.Is(err, mm.ErrEntityTooBig) {
		t.Fatalf("oversized insert: %v", err)
	}
}

func TestPlacementSpillsToNewPartition(t *testing.T) {
	m, _, seg := newTestManager()
	tx := m.Begin()
	blob := make([]byte, 1000)
	var parts = map[addr.PartitionNum]bool{}
	for i := 0; i < 12; i++ {
		a, err := tx.InsertEntity(seg, false, blob)
		if err != nil {
			t.Fatal(err)
		}
		parts[a.Part] = true
	}
	if len(parts) < 3 {
		t.Fatalf("12KB of entities in %d partitions of 4KB", len(parts))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexPagerWithTTreeAbort drives a real T-Tree through the
// transactional pager and verifies abort restores the exact index
// state, node bytes included.
func TestIndexPagerWithTTreeAbort(t *testing.T) {
	m, _, _ := newTestManager()
	idxSeg := m.Store().CreateSegment()

	cmpE := func(a, b uint64) (int, error) {
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		}
		return 0, nil
	}
	cmpK := func(k any, e uint64) (int, error) { return cmpE(k.(uint64), e) }

	tx := m.Begin()
	tree, hdr, err := ttree.Create(IndexPager{T: tx, Seg: idxSeg}, 4, cmpE, cmpK)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		if err := tree.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Snapshot the index segment images.
	snap := map[addr.PartitionID][]byte{}
	for _, p := range m.Store().Partitions(idxSeg) {
		snap[p.ID()] = p.Snapshot()
	}

	// Mutate heavily in a new txn, then abort.
	tx2 := m.Begin()
	tree2, err := ttree.Open(IndexPager{T: tx2, Seg: idxSeg}, hdr, cmpE, cmpK)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(101); i <= 200; i++ {
		if err := tree2.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 50; i++ {
		if err := tree2.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}

	// Partition images must be logically identical to the snapshot:
	// same entities at same slots (physical layout may differ — abort
	// restores entity state, not heap offsets).
	for _, p := range m.Store().Partitions(idxSeg) {
		want, err := mm.FromImage(p.ID(), snap[p.ID()])
		if err != nil {
			t.Fatal(err)
		}
		if want.EntityCount() != p.EntityCount() {
			t.Fatalf("%v: entity count %d, want %d", p.ID(), p.EntityCount(), want.EntityCount())
		}
		want.Slots(func(s addr.Slot, data []byte) bool {
			got, err := p.Read(s)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%v slot %d mismatch after abort: %v", p.ID(), s, err)
			}
			return true
		})
	}

	// And the reopened tree behaves as before the aborted txn.
	tx3 := m.Begin()
	defer tx3.Abort()
	tree3, err := ttree.Open(IndexPager{T: tx3, Seg: idxSeg}, hdr, cmpE, cmpK)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree3.Check(); err != nil {
		t.Fatal(err)
	}
	n, err := tree3.Count()
	if err != nil || n != 100 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func TestReadPager(t *testing.T) {
	m, _, seg := newTestManager()
	tx := m.Begin()
	a, _ := tx.InsertEntity(seg, false, []byte("ro"))
	tx.Commit()
	rp := ReadPager{Store: m.Store()}
	got, err := rp.Read(a)
	if err != nil || !bytes.Equal(got, []byte("ro")) {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if _, err := rp.Insert([]byte("x")); err == nil {
		t.Fatal("ReadPager.Insert succeeded")
	}
	if err := rp.Update(a, []byte("x")); err == nil {
		t.Fatal("ReadPager.Update succeeded")
	}
	if err := rp.Delete(a); err == nil {
		t.Fatal("ReadPager.Delete succeeded")
	}
}
