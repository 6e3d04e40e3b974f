package mm

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/heat"
	"mmdb/internal/stablemem"
)

func newTracker(t testing.TB) *heat.Tracker {
	t.Helper()
	tr, _, _, err := heat.Attach(stablemem.New(1<<20, 1, nil), 16<<10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestResidentResolveAllocatesNothing(t *testing.T) {
	st := NewStore(1024)
	tr := newTracker(t)
	st.SetHeat(tr)
	p, err := st.AllocPartition(st.CreateSegment())
	if err != nil {
		t.Fatal(err)
	}
	slot, err := p.Insert([]byte("resident"))
	if err != nil {
		t.Fatal(err)
	}
	a := addr.EntityAddr{Segment: p.ID().Segment, Part: p.ID().Part, Slot: slot}
	calls := int64(0)
	// Enough runs to cross the tracker's persist cadence: a persist after
	// the first reuses its buffers.
	const runs = 3 * heat.DefaultPersistEvery
	if n := testing.AllocsPerRun(runs, func() {
		calls++
		if got, err := st.Partition(p.ID()); err != nil || got != p {
			t.Fatalf("Partition = %v, %v", got, err)
		}
	}); n != 0 {
		t.Errorf("Store.Partition allocates %v per resident resolve", n)
	}
	if n := testing.AllocsPerRun(runs, func() {
		calls++
		b, latch, err := st.Lend(a)
		if err != nil || string(b) != "resident" {
			t.Fatalf("Lend = %q, %v", b, err)
		}
		latch.Unlock()
	}); n != 0 {
		t.Errorf("Store.Lend allocates %v per resident resolve", n)
	}
	if w := tr.Weight(p.ID()); w != calls {
		t.Fatalf("weight %d after %d resolves", w, calls)
	}
}

// genCopy is a copy of partition id whose entity at slot 0 holds gen.
func genCopy(id addr.PartitionID, gen uint64) *Partition {
	p := NewPartition(id, 256)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], gen)
	if _, err := p.Insert(b[:]); err != nil {
		panic(err)
	}
	return p
}

func copyGen(p *Partition) uint64 {
	b, err := p.Read(0)
	if err != nil {
		panic(err)
	}
	return binary.LittleEndian.Uint64(b)
}

// TestResolveSeesInstallAndEvict runs resolvers beside every writer of
// the published table. Once Install returns, no resolve may return the
// copy it replaced; once Evict returns, a resolve must recover.
func TestResolveSeesInstallAndEvict(t *testing.T) {
	st := NewStore(256)
	seg := st.CreateSegment()
	id := addr.PartitionID{Segment: seg, Part: 5}
	var gen, floor, recoveries atomic.Uint64
	st.SetResolve(func(id addr.PartitionID) (*Partition, error) {
		recoveries.Add(1)
		return genCopy(id, gen.Add(1)), nil
	})
	st.Install(genCopy(id, gen.Add(1)))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bad atomic.Value
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := floor.Load()
				p, err := st.Partition(id)
				if err != nil {
					bad.Store(err.Error())
					return
				}
				if g := copyGen(p); g < lo {
					bad.Store("resolve returned a replaced copy")
					return
				}
			}
		}()
	}
	// Other segments come and go, growing the table under the resolvers,
	// and the heat sink is swapped.
	trackers := []*heat.Tracker{newTracker(t), newTracker(t)}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := st.CreateSegment()
			for j := 0; j < 3; j++ {
				p, err := st.AllocPartition(s)
				if err != nil {
					bad.Store(err.Error())
					return
				}
				if got, err := st.Partition(p.ID()); err != nil || got != p {
					bad.Store("fresh partition does not resolve to itself")
					return
				}
			}
			st.DropSegment(s)
			st.SetHeat(trackers[i%2])
		}
	}()

	for round := 0; round < 300 && bad.Load() == nil; round++ {
		c := genCopy(id, gen.Add(1))
		st.Install(c)
		floor.Store(copyGen(c))
		if got, _ := st.Partition(id); got != c {
			bad.Store(fmt.Sprintf("round %d: resolve after Install returned another copy", round))
			break
		}
		if round%3 == 0 {
			before := recoveries.Load()
			st.Evict(id)
			if got, err := st.Partition(id); err != nil || got == c || recoveries.Load() == before {
				bad.Store(fmt.Sprintf("round %d: resolve after Evict did not recover (%v)", round, err))
				break
			}
		}
	}
	close(stop)
	wg.Wait()
	if msg := bad.Load(); msg != nil {
		t.Fatal(msg)
	}
}

// TestFailedDemandLeavesNoCount: a demand for a partition that is gone
// (its segment dropped, and nothing to resolve it from) counts nothing,
// so it does not give the tracker back a count Drop deleted.
func TestFailedDemandLeavesNoCount(t *testing.T) {
	st := NewStore(256)
	tr := newTracker(t)
	st.SetHeat(tr)
	seg := st.CreateSegment()
	p, err := st.AllocPartition(seg)
	if err != nil {
		t.Fatal(err)
	}
	pid := p.ID()
	st.DropSegment(seg)
	tr.Drop(pid)
	if _, err := st.Partition(pid); !errors.Is(err, ErrNotResident) {
		t.Fatalf("demand with no resolver: err %v, want ErrNotResident", err)
	}
	gone := errors.New("no such partition")
	st.SetResolve(func(addr.PartitionID) (*Partition, error) { return nil, gone })
	if _, err := st.Partition(pid); !errors.Is(err, gone) {
		t.Fatalf("demand with a failing resolver: err %v", err)
	}
	if n := tr.Tracked(); n != 0 {
		t.Fatalf("%d partitions tracked after failed demands, want 0", n)
	}
}

// TestHeatCountsEveryResolve holds the counts kept on resident
// partitions to a reference that counts one per resolve, through
// misses, Forget and a swap of the heat sink.
func TestHeatCountsEveryResolve(t *testing.T) {
	st := NewStore(256)
	recoveries := 0
	st.SetResolve(func(id addr.PartitionID) (*Partition, error) {
		recoveries++
		return NewPartition(id, 256), nil
	})
	var pids []addr.PartitionID
	for s := 0; s < 3; s++ {
		seg := st.CreateSegment()
		for j := 0; j < 20; j++ {
			p, err := st.AllocPartition(seg)
			if err != nil {
				t.Fatal(err)
			}
			pids = append(pids, p.ID())
		}
	}
	// An address past the table's bounds is kept apart; it counts alike.
	far := addr.PartitionID{Segment: tableSegs + 1, Part: 3}
	st.Install(NewPartition(far, 256))
	pids = append(pids, far)

	trackers := []*heat.Tracker{newTracker(t), newTracker(t)}
	refs := []map[addr.PartitionID]int64{{}, {}}
	cur := 0
	st.SetHeat(trackers[cur])
	rng := rand.New(rand.NewSource(39))
	evictions := 0
	for i := 0; i < 20000; i++ {
		pid := pids[rng.Intn(len(pids))]
		switch r := rng.Intn(1000); {
		case r < 20:
			st.Evict(pid) // the resolve below misses
			evictions++
		case r < 23:
			trackers[cur].Forget(pid)
			refs[cur][pid] = 0
		case r < 25:
			cur = 1 - cur
			st.SetHeat(trackers[cur])
		}
		if _, err := st.Partition(pid); err != nil {
			t.Fatal(err)
		}
		refs[cur][pid]++
	}
	if recoveries != evictions {
		t.Fatalf("%d recoveries for %d evictions: a resident partition missed", recoveries, evictions)
	}
	for k, tr := range trackers {
		var want []heat.PartHeat
		for pid, w := range refs[k] {
			if w > 0 {
				want = append(want, heat.PartHeat{PID: pid, Weight: w})
			}
		}
		slices.SortFunc(want, func(a, b heat.PartHeat) int {
			if c := cmp.Compare(b.Weight, a.Weight); c != 0 {
				return c
			}
			if a.PID.Less(b.PID) {
				return -1
			}
			return 1
		})
		if got := tr.Ranking(); !slices.Equal(got, want) {
			t.Fatalf("tracker %d ranking\n got %v\nwant %v", k, got, want)
		}
	}
}
