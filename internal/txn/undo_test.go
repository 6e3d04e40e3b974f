package txn

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/lock"
	"mmdb/internal/mm"
)

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

// TestUndoSpaceAllocatesNothingPerRecord: a finished transaction hands
// its UNDO list and arena to the next, so once warm a transaction that
// keeps forty UNDO records allocates what one that keeps one does.
func TestUndoSpaceAllocatesNothingPerRecord(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	m := NewManager(mm.NewStore(64<<10), lock.NewManager(), nopSink{})
	seg := m.Store().CreateSegment()
	setup := m.Begin()
	a, err := setup.InsertEntity(seg, false, make([]byte, 256))
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{9}, 256)
	cycle := func(k int) func() {
		return func() {
			tx := m.Begin()
			for i := 0; i < k; i++ {
				var err error
				if i%2 == 0 {
					err = tx.UpdateEntity(a, false, data)
				} else {
					err = tx.WriteEntityAt(a, false, 8, data[:16])
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	a1 := testing.AllocsPerRun(20, cycle(1))
	a40 := testing.AllocsPerRun(20, cycle(40))
	if a40 != a1 {
		t.Fatalf("a 40-record transaction allocates %.0f times, a 1-record one %.0f", a40, a1)
	}
}

// TestUndoSpaceShrinks: a transaction that uses under a quarter of the
// list or arena it was handed drops it, so what a loader grew does not
// stay live under small transactions; one that fills its space keeps it.
func TestUndoSpaceShrinks(t *testing.T) {
	m, _, seg := newTestManager()
	setup := m.Begin()
	a, err := setup.InsertEntity(seg, false, make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	run := func(arena, list, writes int) *undoSpace {
		tx := m.Begin()
		s := tx.space
		s.bytes = make([]byte, 0, arena)
		tx.undo = make([]undoEntry, 0, list)
		for i := 0; i < writes; i++ {
			if err := tx.WriteEntityAt(a, false, 0, make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	if s := run(64<<10, 256, 3); s.bytes != nil || s.entries != nil {
		t.Fatalf("a 3-record transaction kept a %d-byte arena and a %d-entry list", cap(s.bytes), cap(s.entries))
	}
	if s := run(2<<10, 16, 12); cap(s.bytes) != 2<<10 || cap(s.entries) != 16 || len(s.bytes) != 0 || len(s.entries) != 0 {
		t.Fatalf("a 12-record transaction handed on arena %d/%d, list %d/%d; want both emptied and kept",
			len(s.bytes), cap(s.bytes), len(s.entries), cap(s.entries))
	}
}

// TestAbortRestoresThroughReusedUndoSpace: transactions that reuse one
// another's UNDO space, in every size, commit or abort at random; every
// abort restores exactly the bytes its own transaction overwrote, never
// an earlier transaction's.
func TestAbortRestoresThroughReusedUndoSpace(t *testing.T) {
	m, _, seg := newTestManager()
	rng := rand.New(rand.NewSource(49))
	const n = 6
	var addrs [n]addr.EntityAddr
	var model [n][]byte
	setup := m.Begin()
	for i := range addrs {
		model[i] = bytes.Repeat([]byte{byte(i)}, 40)
		a, err := setup.InsertEntity(seg, false, model[i])
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = a
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 300; round++ {
		tx := m.Begin()
		next := model
		for op := rng.Intn(1 + rng.Intn(40)); op >= 0; op-- {
			i := rng.Intn(n)
			if rng.Intn(2) == 0 {
				b := make([]byte, 20+rng.Intn(41))
				rng.Read(b)
				if err := tx.UpdateEntity(addrs[i], false, b); err != nil {
					t.Fatal(err)
				}
				next[i] = b
				continue
			}
			off := rng.Intn(len(next[i]))
			b := make([]byte, rng.Intn(len(next[i])-off+1))
			rng.Read(b)
			if err := tx.WriteEntityAt(addrs[i], false, off, b); err != nil {
				t.Fatal(err)
			}
			next[i] = append(append(append([]byte(nil), next[i][:off]...), b...), next[i][off+len(b):]...)
		}
		if rng.Intn(2) == 0 {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			model = next
		} else if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		check := m.Begin()
		for i, a := range addrs {
			got, err := check.ReadEntity(a)
			if err != nil || !bytes.Equal(got, model[i]) {
				t.Fatalf("round %d: entity %d reads %x (%v), want %x", round, i, got, err, model[i])
			}
		}
		if err := check.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}
