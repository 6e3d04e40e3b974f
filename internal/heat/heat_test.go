package heat

import (
	"sync"
	"testing"
	"time"

	"mmdb/internal/addr"
	"mmdb/internal/stablemem"
)

func pid(seg, part uint32) addr.PartitionID {
	return addr.PartitionID{Segment: addr.SegmentID(seg), Part: addr.PartitionNum(part)}
}

func newMem(t *testing.T) *stablemem.Memory {
	t.Helper()
	return stablemem.New(1<<20, 1, nil)
}

func TestTouchAndRanking(t *testing.T) {
	mem := newMem(t)
	tr, recovered, _, err := Attach(mem, 4<<10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh memory recovered %d entries", len(recovered))
	}
	for i := 0; i < 10; i++ {
		tr.Touch(pid(2, 0))
	}
	for i := 0; i < 5; i++ {
		tr.Touch(pid(2, 1))
	}
	tr.Touch(pid(3, 0))
	r := tr.Ranking()
	if len(r) != 3 {
		t.Fatalf("ranking has %d entries, want 3", len(r))
	}
	if r[0].PID != pid(2, 0) || r[0].Weight != 10 {
		t.Fatalf("hottest = %v w=%d, want P(2.0) w=10", r[0].PID, r[0].Weight)
	}
	if r[1].PID != pid(2, 1) || r[2].PID != pid(3, 0) {
		t.Fatalf("ranking order wrong: %v", r)
	}
	if w := tr.Weight(pid(2, 1)); w != 5 {
		t.Fatalf("Weight(P(2.1)) = %d, want 5", w)
	}
}

func TestSnapshotSurvivesReattach(t *testing.T) {
	mem := newMem(t)
	tr, _, _, err := Attach(mem, 4<<10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tr.Touch(pid(2, 0))
	}
	for i := 0; i < 40; i++ {
		tr.Touch(pid(2, 1))
	}
	for i := 0; i < 7; i++ {
		tr.Touch(pid(4, 2))
	}
	tr.Persist()

	// Simulated crash: the tracker is dropped, the Memory survives.
	tr2, recovered, _, err := Attach(mem, 4<<10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []PartHeat{
		{PID: pid(2, 0), Weight: 100},
		{PID: pid(2, 1), Weight: 40},
		{PID: pid(4, 2), Weight: 7},
	}
	if len(recovered) != len(want) {
		t.Fatalf("recovered %d entries, want %d: %v", len(recovered), len(want), recovered)
	}
	for i := range want {
		if recovered[i] != want[i] {
			t.Fatalf("recovered[%d] = %v, want %v", i, recovered[i], want[i])
		}
	}
	// The new generation is seeded with the recovered counts.
	if w := tr2.Weight(pid(2, 0)); w != 100 {
		t.Fatalf("seeded weight = %d, want 100", w)
	}
}

// TestDropDeletesTheCount: Forget zeroes a count and keeps it, Drop
// deletes it, so the tracked set, the ranking and the next generation's
// seed no longer hold the partition, and a later Count starts afresh.
func TestDropDeletesTheCount(t *testing.T) {
	mem := newMem(t)
	tr, _, _, err := Attach(mem, 4<<10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for part := uint32(0); part < 4; part++ {
		for i := uint32(0); i <= part; i++ {
			tr.Touch(pid(2, part))
		}
	}
	kept := tr.Count(pid(2, 3))
	tr.Forget(pid(2, 3))
	tr.Drop(pid(2, 1))
	tr.Drop(pid(2, 2))
	tr.Drop(pid(9, 9)) // never counted
	if n := tr.Tracked(); n != 2 {
		t.Fatalf("Tracked() = %d after dropping two of four, want 2", n)
	}
	if r := tr.Ranking(); len(r) != 1 || r[0] != (PartHeat{PID: pid(2, 0), Weight: 1}) {
		t.Fatalf("ranking %v, want only P(2.0) w=1", r)
	}
	if tr.Count(pid(2, 3)) != kept {
		t.Fatal("Forget replaced the count instead of zeroing it")
	}
	if c := tr.Count(pid(2, 1)); c.Load() != 0 || tr.Tracked() != 3 {
		t.Fatalf("a dropped partition counted again starts at %d with %d tracked, want 0 and 3", c.Load(), tr.Tracked())
	}
	tr.Drop(pid(2, 1))
	tr.Persist()
	tr2, recovered, _, err := Attach(mem, 4<<10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].PID != pid(2, 0) || tr2.Tracked() != 1 {
		t.Fatalf("after re-attach: recovered %v, %d tracked; want only P(2.0)", recovered, tr2.Tracked())
	}
}

func TestTornPersistKeepsPriorGeneration(t *testing.T) {
	mem := newMem(t)
	snap, err := NewSnapshot(mem, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	snap.Store([]PartHeat{{PID: pid(2, 0), Weight: 11}})
	snap.Store([]PartHeat{{PID: pid(2, 0), Weight: 22}})
	loaded, _ := snap.Load()
	if len(loaded) != 1 || loaded[0].Weight != 22 {
		t.Fatalf("loaded %v, want weight 22", loaded)
	}
	// A crash torn mid-persist of generation 3 leaves its slot (slot 1,
	// gen 3 is odd) with a header whose checksum cannot verify; the
	// loader must fall back to generation 2 in the other slot.
	snap.reg.WriteAt(3%2*(snap.Size()/2), []byte("MHT1garbage-partial-header"))
	if got, _ := snap.Load(); len(got) != 1 || got[0].Weight != 22 {
		t.Fatalf("after torn header, loaded %v, want weight 22", got)
	}
}

func TestSnapshotTruncatesToHottest(t *testing.T) {
	mem := newMem(t)
	snap, err := NewSnapshot(mem, MinSnapshotBytes)
	if err != nil {
		t.Fatal(err)
	}
	var ranked []PartHeat
	for i := 0; i < 1000; i++ {
		ranked = append(ranked, PartHeat{PID: pid(2, uint32(i)), Weight: int64(1000 - i)})
	}
	stored, _ := snap.Store(ranked)
	if stored == 0 || stored >= 1000 {
		t.Fatalf("stored = %d, want a truncated non-zero prefix", stored)
	}
	loaded, _ := snap.Load()
	if len(loaded) != stored {
		t.Fatalf("loaded %d entries, stored %d", len(loaded), stored)
	}
	// The prefix kept must be the hottest entries, in rank order.
	for i, ph := range loaded {
		if ph != ranked[i] {
			t.Fatalf("loaded[%d] = %v, want %v", i, ph, ranked[i])
		}
	}
}

// TestAttachRejectsDecay: counts do not decay, so any half-life but 0
// is refused before the stable region is touched.
func TestAttachRejectsDecay(t *testing.T) {
	mem := newMem(t)
	if _, _, _, err := Attach(mem, 4<<10, 0, time.Hour); err == nil {
		t.Fatal("Attach accepted a one-hour half-life")
	}
	if mem.Root(rootKey) != nil {
		t.Fatal("a refused Attach installed a snapshot region")
	}
}

func TestPeriodicPersist(t *testing.T) {
	mem := newMem(t)
	tr, _, _, err := Attach(mem, 4<<10, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	var persists int
	tr.OnPersist = func(parts, bytes int) { persists++ }
	for i := 0; i < 25; i++ {
		tr.Touch(pid(2, 0))
	}
	if persists != 3 {
		t.Fatalf("25 touches at cadence 8 -> %d persists, want 3", persists)
	}
	_, recovered, _, err := Attach(mem, 4<<10, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].PID != pid(2, 0) {
		t.Fatalf("recovered %v, want P(2.0)", recovered)
	}
}

func TestAttachDisabledFreesRegion(t *testing.T) {
	mem := newMem(t)
	tr, _, _, err := Attach(mem, 4<<10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Touch(pid(2, 0))
	tr.Persist()
	used := mem.Used()
	if used == 0 {
		t.Fatal("snapshot region should reserve stable bytes")
	}
	tr2, recovered, _, err := Attach(mem, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr2 != nil {
		t.Fatal("disabled attach should return a nil tracker")
	}
	if len(recovered) != 1 {
		t.Fatalf("prior ranking must still be recovered, got %v", recovered)
	}
	if mem.Used() != 0 {
		t.Fatalf("region not freed: %d bytes still reserved", mem.Used())
	}
	// Nil tracker: every method is a no-op.
	tr2.Touch(pid(2, 0))
	tr2.Persist()
	if tr2.Ranking() != nil || tr2.Weight(pid(2, 0)) != 0 {
		t.Fatal("nil tracker should be inert")
	}
}

func TestAttachResize(t *testing.T) {
	mem := newMem(t)
	tr, _, _, err := Attach(mem, 4<<10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		tr.Touch(pid(2, 3))
	}
	tr.Persist()
	// Reattach with a different size: region reallocates, but the
	// ranking must carry over (re-persisted into the new region).
	_, recovered, _, err := Attach(mem, 8<<10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].Weight != 9 {
		t.Fatalf("recovered %v across resize, want P(2.3) w=9", recovered)
	}
	_, recovered2, _, err := Attach(mem, 8<<10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered2) != 1 || recovered2[0].Weight != 9 {
		t.Fatalf("ranking lost after resize persist: %v", recovered2)
	}
}

func TestConcurrentTouch(t *testing.T) {
	mem := newMem(t)
	tr, _, _, err := Attach(mem, 4<<10, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const goroutines, per = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Touch(pid(2, uint32(i%16)))
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, ph := range tr.Ranking() {
		total += ph.Weight
	}
	if total != goroutines*per {
		t.Fatalf("total weight = %d, want %d", total, goroutines*per)
	}
}

func TestPersistAllocatesNothing(t *testing.T) {
	tr := persistTracker(t, 1000)
	if n := testing.AllocsPerRun(50, tr.Persist); n != 0 {
		t.Fatalf("a persist after the first allocates %v", n)
	}
	r := tr.Ranking()
	got, _ := tr.Snap().Load()
	if len(got) == 0 || len(got) > len(r) {
		t.Fatalf("persisted %d of %d entries", len(got), len(r))
	}
	for i := range got {
		if got[i] != r[i] {
			t.Fatalf("persisted entry %d = %v, ranking has %v", i, got[i], r[i])
		}
	}
}
