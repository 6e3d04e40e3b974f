package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/mm"
)

// The placement property test runs random interleaved transactions
// against InsertEntity and against a reference model that does plain
// first fit the slow way — every resident partition from the first, free
// space recomputed from the slot contents — and demands the same
// (partition, slot) for every insert. The model knows the image layout
// (12-byte header, 8-byte slot entries, LIFO free-slot chain) and nothing
// of headers, cursors or compaction.

const (
	modelHeader   = 12
	modelSlotSize = 8
	modelMaxSlots = 0xFFFF
)

type modelPart struct {
	slots    []int // entity length per slot, -1 when free
	chain    []int // free slots, most recently freed last
	live     int
	owner    uint64 // allocating transaction until it commits
	resident bool
	dirty    int // open transactions with undo records here
}

func (p *modelPart) free(size int) int {
	return size - modelHeader - modelSlotSize*len(p.slots) - p.live
}

func (p *modelPart) fits(size, d int) bool {
	if len(p.chain) > 0 {
		return d <= p.free(size)
	}
	return len(p.slots) < modelMaxSlots && d+modelSlotSize <= p.free(size)
}

func (p *modelPart) insert(d int) int {
	var slot int
	if n := len(p.chain); n > 0 {
		slot, p.chain = p.chain[n-1], p.chain[:n-1]
		p.slots[slot] = d
	} else {
		slot = len(p.slots)
		p.slots = append(p.slots, d)
	}
	p.live += d
	return slot
}

func (p *modelPart) remove(slot int) {
	p.live -= p.slots[slot]
	p.slots[slot] = -1
	p.chain = append(p.chain, slot)
}

// resize reports whether an update to d bytes fits, applying it if so.
func (p *modelPart) resize(size, slot, d int) bool {
	old := p.slots[slot]
	if d != old && size-(p.live-old)-d < modelHeader+modelSlotSize*len(p.slots) {
		return false
	}
	p.live += d - old
	p.slots[slot] = d
	return true
}

type modelTxn struct {
	tx      *Txn
	undo    []func() // model inverses, applied in reverse on abort
	touched []addr.EntityAddr
	dirtied map[int]bool
	deleted *addr.EntityAddr // the one deferred delete, applied at commit
	owned   []int
}

type placementModel struct {
	t        *testing.T
	m        *Manager
	seg      addr.SegmentID
	size     int
	parts    map[int]*modelPart
	nextPart int
	locked   map[addr.EntityAddr]bool // written by an open transaction
	stash    map[int][]byte           // images of evicted partitions
}

func (pm *placementModel) numbers() []int {
	ns := make([]int, 0, len(pm.parts))
	for n := range pm.parts {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	return ns
}

// expect is reference first fit: where must an insert of d bytes by txn
// land?
func (pm *placementModel) expect(mt *modelTxn, d int) (part, slot int) {
	for _, n := range pm.numbers() {
		p := pm.parts[n]
		if !p.resident || (p.owner != 0 && p.owner != mt.tx.ID()) || !p.fits(pm.size, d) {
			continue
		}
		return n, p.insert(d)
	}
	n := pm.nextPart
	pm.nextPart++
	p := &modelPart{resident: true, owner: mt.tx.ID()}
	pm.parts[n] = p
	mt.owned = append(mt.owned, n)
	mt.undo = append(mt.undo, func() { delete(pm.parts, n) })
	return n, p.insert(d)
}

func (pm *placementModel) dirty(mt *modelTxn, part int) {
	if !mt.dirtied[part] {
		mt.dirtied[part] = true
		pm.parts[part].dirty++
	}
}

func (pm *placementModel) touch(mt *modelTxn, a addr.EntityAddr) {
	pm.locked[a] = true
	mt.touched = append(mt.touched, a)
	pm.dirty(mt, int(a.Part))
}

// rows lists the entities no open transaction has written, in address
// order.
func (pm *placementModel) rows() []addr.EntityAddr {
	var out []addr.EntityAddr
	for _, n := range pm.numbers() {
		p := pm.parts[n]
		if !p.resident || p.owner != 0 {
			continue
		}
		for s, l := range p.slots {
			a := addr.EntityAddr{Segment: pm.seg, Part: addr.PartitionNum(n), Slot: addr.Slot(s)}
			if l >= 0 && !pm.locked[a] {
				out = append(out, a)
			}
		}
	}
	return out
}

func (pm *placementModel) end(mt *modelTxn) {
	for _, a := range mt.touched {
		delete(pm.locked, a)
	}
	for n := range mt.dirtied {
		if p := pm.parts[n]; p != nil {
			p.dirty--
		}
	}
}

func (pm *placementModel) insert(mt *modelTxn, d int, step int) {
	part, slot := pm.expect(mt, d)
	got, err := mt.tx.InsertEntity(pm.seg, false, make([]byte, d))
	if err != nil {
		pm.t.Fatalf("step %d: insert of %d bytes: %v", step, d, err)
	}
	want := addr.EntityAddr{Segment: pm.seg, Part: addr.PartitionNum(part), Slot: addr.Slot(slot)}
	if got != want {
		pm.t.Fatalf("step %d: insert of %d bytes by txn %d placed at %v, first fit says %v", step, d, mt.tx.ID(), got, want)
	}
	pm.touch(mt, got)
	p := pm.parts[part]
	mt.undo = append(mt.undo, func() { p.remove(slot) })
}

func TestInsertPlacementMatchesFirstFit(t *testing.T) {
	sizes := []int{24, 24, 24, 120, 120, 500}
	steps := 6000
	if testing.Short() {
		steps = 1500
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, _, seg := newTestManager()
		pm := &placementModel{
			t: t, m: m, seg: seg, size: m.Store().PartitionSize(),
			parts: map[int]*modelPart{}, locked: map[addr.EntityAddr]bool{}, stash: map[int][]byte{},
		}
		var open []*modelTxn
		counts := map[string]int{}
		for step := 0; step < steps; step++ {
			if len(open) == 0 || (len(open) < 3 && rng.Intn(4) == 0) {
				open = append(open, &modelTxn{tx: m.Begin(), dirtied: map[int]bool{}})
			}
			ti := rng.Intn(len(open))
			mt := open[ti]
			rows := pm.rows()
			op := rng.Intn(100)
			switch {
			case op < 45:
				pm.insert(mt, sizes[rng.Intn(len(sizes))], step)
				counts["insert"]++
			case op < 60 && len(rows) > 0 && mt.deleted == nil:
				// Deferred delete: physical at commit. One per
				// transaction, because commit applies them in map order.
				a := rows[rng.Intn(len(rows))]
				if err := mt.tx.DeleteEntity(a); err != nil {
					t.Fatalf("step %d: delete %v: %v", step, a, err)
				}
				pm.touch(mt, a)
				mt.deleted = &a
				counts["delete"]++
			case op < 75 && len(rows) > 0:
				// Growing or shrinking update.
				a := rows[rng.Intn(len(rows))]
				p := pm.parts[int(a.Part)]
				old, d := p.slots[a.Slot], sizes[rng.Intn(len(sizes))]
				fits := p.resize(pm.size, int(a.Slot), d)
				err := mt.tx.UpdateEntity(a, false, make([]byte, d))
				if fits != (err == nil) || (err != nil && !errors.Is(err, mm.ErrPartitionFull)) {
					t.Fatalf("step %d: update %v from %d to %d bytes: %v, model says fits=%v", step, a, old, d, err, fits)
				}
				if fits {
					pm.touch(mt, a)
					slot := int(a.Slot)
					mt.undo = append(mt.undo, func() { p.resize(pm.size, slot, old) })
					counts[fmt.Sprintf("update%+d", sign(d-old))]++
				}
			case op < 85:
				// Commit.
				if a := mt.deleted; a != nil {
					pm.parts[int(a.Part)].remove(int(a.Slot))
				}
				if err := mt.tx.Commit(); err != nil {
					t.Fatalf("step %d: commit: %v", step, err)
				}
				for _, n := range mt.owned {
					pm.parts[n].owner = 0
				}
				pm.end(mt)
				open = append(open[:ti], open[ti+1:]...)
				counts["commit"]++
			case op < 92:
				// Abort: the model's inverses in reverse, like UNDO.
				// Undoing a shrinking update can find its space taken by
				// another transaction's insert; engine and model then
				// both leave the row short.
				if err := mt.tx.Abort(); err != nil && !errors.Is(err, mm.ErrPartitionFull) {
					t.Fatalf("step %d: abort: %v", step, err)
				}
				pm.end(mt)
				for i := len(mt.undo) - 1; i >= 0; i-- {
					mt.undo[i]()
				}
				open = append(open[:ti], open[ti+1:]...)
				counts["abort"]++
			default:
				// Residency churn on a partition no open transaction has
				// undo records in: re-install from its image, evict it for
				// a while, or bring an evicted one back.
				var idle, away []int
				for _, n := range pm.numbers() {
					switch p := pm.parts[n]; {
					case !p.resident:
						away = append(away, n)
					case p.dirty == 0 && p.owner == 0:
						idle = append(idle, n)
					}
				}
				switch {
				case len(away) > 0 && rng.Intn(2) == 0:
					n := away[rng.Intn(len(away))]
					pm.install(n, pm.stash[n])
					delete(pm.stash, n)
					pm.parts[n].resident = true
					counts["install"]++
				case len(idle) > 0:
					n := idle[rng.Intn(len(idle))]
					pid := addr.PartitionID{Segment: seg, Part: addr.PartitionNum(n)}
					p, err := m.Store().Partition(pid)
					if err != nil {
						t.Fatal(err)
					}
					img := p.Snapshot()
					m.Store().Evict(pid)
					if rng.Intn(2) == 0 {
						pm.install(n, img)
						counts["reinstall"]++
					} else {
						pm.stash[n] = img
						pm.parts[n].resident = false
						counts["evict"]++
					}
				}
			}
		}
		for _, want := range []string{"insert", "delete", "update+1", "update-1", "commit", "abort", "evict", "install", "reinstall"} {
			if counts[want] == 0 {
				t.Fatalf("seed %d never exercised %q: %v", seed, want, counts)
			}
		}
		if len(pm.parts) < 8 {
			t.Fatalf("seed %d filled only %d partitions", seed, len(pm.parts))
		}
	}
}

func (pm *placementModel) install(n int, img []byte) {
	p, err := mm.FromImage(addr.PartitionID{Segment: pm.seg, Part: addr.PartitionNum(n)}, img)
	if err != nil {
		pm.t.Fatal(err)
	}
	pm.m.Store().Install(p)
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// BenchmarkInsertPlacement must be flat in the number of full partitions
// ahead of the one with room.
func BenchmarkInsertPlacement(b *testing.B) {
	for _, parts := range []int{1, 64, 512} {
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			m, _, seg := newTestManager()
			row := make([]byte, 100)
			perPart := (m.Store().PartitionSize() - modelHeader) / (len(row) + modelSlotSize)
			load := m.Begin()
			for i := 0; i < (parts-1)*perPart+1; i++ {
				if _, err := load.InsertEntity(seg, false, row); err != nil {
					b.Fatal(err)
				}
			}
			if err := load.Commit(); err != nil {
				b.Fatal(err)
			}
			if got := len(m.Store().Partitions(seg)); got != parts {
				b.Fatalf("loaded %d partitions, want %d", got, parts)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Insert and take it back, so the fill stays put.
				tx := m.Begin()
				if _, err := tx.InsertEntity(seg, false, row); err != nil {
					b.Fatal(err)
				}
				if err := tx.Abort(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
