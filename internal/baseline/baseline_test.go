package baseline

import (
	"bytes"
	"fmt"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/core"
	"mmdb/internal/mm"
	"mmdb/internal/simdisk"
	"mmdb/internal/wal"
)

func newEngine() *Engine {
	return New(4096, 1024, 1024, simdisk.DefaultParams())
}

// run applies records to the live store and logs them as one committed
// transaction.
func run(t *testing.T, e *Engine, recs []wal.Record) {
	t.Helper()
	for i := range recs {
		r := &recs[i]
		e.Store().EnsureSegment(r.PID.Segment)
		p, err := e.Store().Partition(r.PID)
		if err != nil {
			p2, err2 := e.Store().AllocPartitionAt(r.PID)
			if err2 != nil {
				t.Fatal(err, err2)
			}
			p = p2
		}
		if err := core.ApplyRecord(p, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(recs); err != nil {
		t.Fatal(err)
	}
}

func ins(pid addr.PartitionID, slot addr.Slot, data string) wal.Record {
	return wal.Record{Tag: wal.TagRelInsert, Txn: 1, PID: pid, Slot: slot, Data: []byte(data)}
}

func upd(pid addr.PartitionID, slot addr.Slot, data string) wal.Record {
	return wal.Record{Tag: wal.TagRelUpdate, Txn: 1, PID: pid, Slot: slot, Data: []byte(data)}
}

func del(pid addr.PartitionID, slot addr.Slot) wal.Record {
	return wal.Record{Tag: wal.TagRelDelete, Txn: 1, PID: pid, Slot: slot}
}

func TestRecoverFromLogOnly(t *testing.T) {
	e := newEngine()
	pid := addr.PartitionID{Segment: 2, Part: 0}
	run(t, e, []wal.Record{ins(pid, 0, "a"), ins(pid, 1, "b")})
	run(t, e, []wal.Record{upd(pid, 0, "A"), del(pid, 1)})
	store, err := e.Recover(4096)
	if err != nil {
		t.Fatal(err)
	}
	p, err := store.Partition(pid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(0)
	if err != nil || !bytes.Equal(got, []byte("A")) {
		t.Fatalf("slot 0 = %q, %v", got, err)
	}
	if _, err := p.Read(1); err == nil {
		t.Fatal("deleted slot present")
	}
}

func TestRecoverFromCheckpointPlusLog(t *testing.T) {
	e := newEngine()
	pid := addr.PartitionID{Segment: 2, Part: 0}
	run(t, e, []wal.Record{ins(pid, 0, "v1")})
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if e.LogPages() != 0 {
		t.Fatalf("log not truncated: %d pages", e.LogPages())
	}
	run(t, e, []wal.Record{upd(pid, 0, "v2")})
	store, err := e.Recover(4096)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := store.Partition(pid)
	got, err := p.Read(0)
	if err != nil || !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("slot 0 = %q, %v", got, err)
	}
}

func TestCheckpointStreamsWholeDatabase(t *testing.T) {
	e := newEngine()
	// 8 partitions of data.
	for part := 0; part < 8; part++ {
		pid := addr.PartitionID{Segment: 2, Part: addr.PartitionNum(part)}
		run(t, e, []wal.Record{ins(pid, 0, fmt.Sprintf("p%d", part))})
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	written := e.CkptDiskBusy.Value()
	if written == 0 {
		t.Fatal("checkpoint charged no disk time")
	}
	// Recovery reloads all 8 partitions even if only one is wanted:
	// that is the point of the comparison.
	store, err := e.Recover(4096)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(store.ResidentIDs()); got != 8 {
		t.Fatalf("recovered %d partitions", got)
	}
	if e.CkptDiskBusy.Value() == written {
		t.Fatal("recovery charged no disk time")
	}
}

func TestRecoveryLargerThanPartitionLevelShape(t *testing.T) {
	// The headline §3.4.1 claim in miniature: database-level recovery
	// cost grows with database size even when the working set is one
	// partition.
	sizes := []int{4, 16, 64}
	var prev int64
	for _, n := range sizes {
		e := newEngine()
		for part := 0; part < n; part++ {
			pid := addr.PartitionID{Segment: 2, Part: addr.PartitionNum(part)}
			run(t, e, []wal.Record{ins(pid, 0, "x")})
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		before := e.CkptDiskBusy.Value()
		if _, err := e.Recover(4096); err != nil {
			t.Fatal(err)
		}
		d := e.CkptDiskBusy.Value() - before
		if d <= prev {
			t.Fatalf("recovery time did not grow with db size: %d then %d", prev, d)
		}
		prev = d
	}
}

func TestPartialLogPageRecovered(t *testing.T) {
	e := newEngine()
	pid := addr.PartitionID{Segment: 2, Part: 0}
	run(t, e, []wal.Record{ins(pid, 0, "only")}) // stays in e.cur
	if len(e.logPages) != 0 {
		t.Fatal("tiny record flushed a page unexpectedly")
	}
	store, err := e.Recover(4096)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := store.Partition(pid)
	got, err := p.Read(0)
	if err != nil || !bytes.Equal(got, []byte("only")) {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestApplyLenient(t *testing.T) {
	pid := addr.PartitionID{Segment: 2, Part: 0}
	p := mm.NewPartition(pid, 4096)
	// Delete of a missing slot: no-op.
	r := del(pid, 3)
	if err := core.ApplyRecord(p, &r); err != nil {
		t.Fatal(err)
	}
	// Update of a missing slot: creates it.
	r = upd(pid, 2, "made")
	if err := core.ApplyRecord(p, &r); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(2)
	if err != nil || !bytes.Equal(got, []byte("made")) {
		t.Fatalf("got %q, %v", got, err)
	}
	// Insert onto an occupied slot: overwrite.
	r = ins(pid, 2, "over")
	if err := core.ApplyRecord(p, &r); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Read(2)
	if !bytes.Equal(got, []byte("over")) {
		t.Fatalf("got %q", got)
	}
}
