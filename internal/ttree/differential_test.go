package ttree

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"mmdb/internal/addr"
)

// latchPager is a lending pager that polices the lending contract. One
// entity is lent at a time; nothing is lent while the pager is called or
// — through guard — while a comparator runs; and what was lent is
// scribbled over at Unlock, so a traversal that kept lent bytes reads
// garbage and the differential test sees it.
type latchPager struct {
	*mapPager
	t     testing.TB
	held  int
	lent  []byte
	lends int
}

func (p *latchPager) guard(what string) {
	if p.held != 0 {
		p.t.Errorf("%s with an entity still lent", what)
	}
}

func (p *latchPager) Lend(a addr.EntityAddr) ([]byte, sync.Locker, error) {
	p.guard("Lend")
	d, err := p.mapPager.Read(a)
	if err != nil {
		return nil, nil, err
	}
	p.held++
	p.lends++
	p.lent = append(p.lent[:0], d...)
	return p.lent, p, nil
}

func (p *latchPager) Lock() {}
func (p *latchPager) Unlock() {
	p.held--
	for i := range p.lent {
		p.lent[i] = 0xAA
	}
}

func (p *latchPager) Read(a addr.EntityAddr) ([]byte, error) {
	p.guard("Read")
	return p.mapPager.Read(a)
}

func (p *latchPager) Insert(data []byte) (addr.EntityAddr, error) {
	p.guard("Insert")
	return p.mapPager.Insert(data)
}

func (p *latchPager) Update(a addr.EntityAddr, data []byte) error {
	p.guard("Update")
	return p.mapPager.Update(a, data)
}

func (p *latchPager) Delete(a addr.EntityAddr) error {
	p.guard("Delete")
	return p.mapPager.Delete(a)
}

// newLatchedTree is a tree over a latchPager whose comparators fail the
// test when called with an entity lent: the rule that no latch is held
// across a comparator call.
func newLatchedTree(t testing.TB, order int) (*Tree, *latchPager) {
	t.Helper()
	p := &latchPager{mapPager: newMapPager(), t: t}
	tr, _, err := Create(p, order,
		func(a, b uint64) (int, error) { p.guard("CompareEntries"); return cmpE(a, b) },
		func(key any, e uint64) (int, error) { p.guard("CompareKey"); return cmpK(key, e) })
	if err != nil {
		t.Fatal(err)
	}
	return tr, p
}

// scanResult is everything a caller can observe of one scan.
type scanResult struct {
	entries []uint64
	err     string
}

func (r scanResult) String() string { return fmt.Sprintf("%v err=%q", r.entries, r.err) }

func (r scanResult) equal(o scanResult) bool {
	if r.err != o.err || len(r.entries) != len(o.entries) {
		return false
	}
	for i := range r.entries {
		if r.entries[i] != o.entries[i] {
			return false
		}
	}
	return true
}

// observe runs one scan, stopping it after limit entries (0: never).
func observe(scan func(fn func(uint64) bool) error, limit int) scanResult {
	var r scanResult
	err := scan(func(e uint64) bool {
		r.entries = append(r.entries, e)
		return len(r.entries) != limit
	})
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// randomBound is nil now and then, else a key in and a little around the
// populated range.
func randomBound(rng *rand.Rand, keys int) any {
	if rng.Intn(6) == 0 {
		return nil
	}
	return uint64(rng.Intn(keys + 4))
}

// compareScans holds Range and Search to the reference on random bounds,
// including open, inverted and out-of-range ones, and early stops.
func compareScans(t *testing.T, tr *Tree, rng *rand.Rand, keys, rounds int, what string) {
	t.Helper()
	ref := refOf(tr)
	for i := 0; i < rounds; i++ {
		lo, hi, limit := randomBound(rng, keys), randomBound(rng, keys), rng.Intn(4)*rng.Intn(8)
		got := observe(func(fn func(uint64) bool) error { return tr.Range(lo, hi, fn) }, limit)
		want := observe(func(fn func(uint64) bool) error { return ref.Range(lo, hi, fn) }, limit)
		if !got.equal(want) {
			t.Fatalf("%s: Range(%v, %v) limit %d:\n got %v\nwant %v", what, lo, hi, limit, got, want)
		}
		if lo == nil {
			continue
		}
		got = observe(func(fn func(uint64) bool) error { return tr.Search(lo, fn) }, limit)
		want = observe(func(fn func(uint64) bool) error { return ref.Range(lo, lo, fn) }, limit)
		if !got.equal(want) {
			t.Fatalf("%s: Search(%v) limit %d:\n got %v\nwant %v", what, lo, limit, got, want)
		}
	}
}

// TestScanMatchesReference drives the tree through random insert, delete
// and duplicate-key schedules at orders 2–32 and, as it goes, holds Search
// and Range to the old unmarshal-everything scan: identical entries in
// identical order, identical early stops. The pager lends and polices the
// lending contract throughout, mutations and Check included.
func TestScanMatchesReference(t *testing.T) {
	for _, order := range []int{2, 3, 4, 7, 16, 32} {
		order := order
		t.Run(fmt.Sprintf("order%d", order), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(order)))
			tr, p := newLatchedTree(t, order)
			const keys = 60
			present := map[uint64]bool{}
			steps := 2500
			if testing.Short() {
				steps = 600
			}
			for step := 0; step < steps; step++ {
				e := entry(uint64(rng.Intn(keys)), uint64(rng.Intn(6)))
				switch {
				case present[e]:
					if err := tr.Delete(e); err != nil {
						t.Fatal(err)
					}
					delete(present, e)
				default:
					if err := tr.Insert(e); err != nil {
						t.Fatal(err)
					}
					present[e] = true
				}
				if step%20 == 0 {
					compareScans(t, tr, rng, keys, 12, fmt.Sprintf("step %d", step))
				}
				if step%200 == 0 {
					if err := tr.Check(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			if p.lends == 0 {
				t.Fatal("the lending pager was never asked to lend")
			}
		})
	}
}

// TestScanErrorsMatchReference damages one node at a time — cut short, or
// claiming more entries than its bytes hold — and expects the in-place
// scan to report what the unmarshalling one reports, after the same
// entries.
func TestScanErrorsMatchReference(t *testing.T) {
	for _, order := range []int{2, 5, 16} {
		rng := rand.New(rand.NewSource(int64(order) + 100))
		tr, p := newLatchedTree(t, order)
		const keys = 80
		for k := 0; k < keys; k++ {
			for uid := 0; uid < 1+rng.Intn(3); uid++ {
				if err := tr.Insert(entry(uint64(k), uint64(uid))); err != nil {
					t.Fatal(err)
				}
			}
		}
		var nodes []addr.EntityAddr
		for a := range p.data {
			if a != tr.Header() {
				nodes = append(nodes, a)
			}
		}
		for trial := 0; trial < 60; trial++ {
			a := nodes[rng.Intn(len(nodes))]
			good := p.data[a]
			bad := append([]byte(nil), good...)
			switch trial % 3 {
			case 0: // shorter than the fixed part
				bad = bad[:rng.Intn(nodeHeaderSize)]
			case 1: // the entries it counts are cut off
				count := int(binary.LittleEndian.Uint16(bad[18:]))
				bad = bad[:nodeHeaderSize+rng.Intn(8*count)]
			case 2: // counts more entries than there is room for
				binary.LittleEndian.PutUint16(bad[18:], uint16(order+1+rng.Intn(1000)))
			}
			p.data[a] = bad
			compareScans(t, tr, rng, keys, 8, fmt.Sprintf("order %d trial %d (node %v, %d of %d bytes)", order, trial, a, len(bad), len(good)))
			if err := tr.Check(); err == nil {
				t.Fatalf("order %d trial %d: Check passed a damaged node", order, trial)
			}
			p.data[a] = good
		}
		if err := tr.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDamagedHeaderAndEmptyNode covers the two cases the reference would
// have panicked on: they are errors now.
func TestDamagedHeaderAndEmptyNode(t *testing.T) {
	tr, p := newLatchedTree(t, 4)
	for k := uint64(0); k < 20; k++ {
		if err := tr.Insert(entry(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var some addr.EntityAddr
	for a := range p.data {
		if a != tr.Header() {
			some = a
			break
		}
	}
	good := p.data[some]
	empty := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(empty[18:], 0)
	p.data[some] = empty
	if err := tr.Range(nil, nil, func(uint64) bool { return true }); err == nil {
		t.Fatal("a node with no entries went unreported")
	}
	p.data[some] = good

	hdr := p.data[tr.Header()]
	for _, bad := range [][]byte{nil, hdr[:headerSize-1]} {
		p.data[tr.Header()] = bad
		if err := tr.Search(uint64(3), func(uint64) bool { return true }); err == nil {
			t.Fatalf("a %d-byte header went unreported", len(bad))
		}
		if _, err := Open(p, tr.Header(), cmpE, cmpK); err == nil {
			t.Fatalf("Open accepted a %d-byte header", len(bad))
		}
	}
	p.data[tr.Header()] = hdr
}

// FuzzNodeInPlace feeds arbitrary bytes to the node reader the traversals
// use and to the old unmarshaller: neither panics, they fail on exactly
// the same inputs with the same message, and read the same node otherwise
// — whether the entries land in the caller's buffer or on the heap.
func FuzzNodeInPlace(f *testing.F) {
	for _, n := range []*node{
		{height: 1, entries: []uint64{7}},
		{left: addr.EntityAddr{Segment: 5, Part: 1, Slot: 2}, right: addr.EntityAddr{Segment: 5, Part: 3, Slot: 4}, height: 3, entries: []uint64{1, 2, 3, 4}},
	} {
		raw := marshalNode(n, 4)
		f.Add(raw)
		f.Add(raw[:nodeHeaderSize+3])
		f.Add(raw[:nodeHeaderSize-1])
	}
	over := marshalNode(&node{height: 1, entries: []uint64{1}}, 2)
	binary.LittleEndian.PutUint16(over[18:], 200)
	f.Add(over)
	f.Add(marshalNode(&node{height: 2, entries: make([]uint64, stackEntries+5)}, stackEntries+5))
	f.Fuzz(func(t *testing.T, raw []byte) {
		want, wantErr := refUnmarshalNode(raw)
		var buf [stackEntries]uint64
		for _, b := range []*[stackEntries]uint64{&buf, nil} {
			got, err := parseNode(raw, b)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("parseNode: %v, unmarshalNode: %v", err, wantErr)
			}
			if err != nil {
				continue
			}
			if got.left != want.left || got.right != want.right || got.height != want.height || len(got.entries) != len(want.entries) {
				t.Fatalf("parseNode read %+v, unmarshalNode %+v", got, *want)
			}
			for i := range got.entries {
				if got.entries[i] != want.entries[i] {
					t.Fatalf("entry %d: %d vs %d", i, got.entries[i], want.entries[i])
				}
			}
		}
	})
}

// lendingMapPager lends a mapPager's own bytes, with nothing to latch: the
// cheapest lending pager there is, for counting what the tree itself
// costs.
type lendingMapPager struct{ *mapPager }

func (p lendingMapPager) Lend(a addr.EntityAddr) ([]byte, sync.Locker, error) {
	d, err := p.mapPager.Read(a)
	return d, unlatched{}, err
}

// TestPointSearchCost pins the two costs of a look-up over a lending
// pager: no allocation outside the callback, and a number of comparator
// calls that follows the tree's depth, not its node size — a T-Tree
// point search over 5 000 unique keys at order 16 makes at most
// 4·depth + ⌈log₂ order⌉ + 4 of them (on the order of a hundred when the
// scan compared the key with every entry of every node it passed).
func TestPointSearchCost(t *testing.T) {
	const n, order = 5000, 16
	calls := 0
	p := lendingMapPager{newMapPager()}
	tr, _, err := Create(p, order, cmpE, func(key any, e uint64) (int, error) { calls++; return cmpK(key, e) })
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for _, k := range rng.Perm(n) {
		if err := tr.Insert(entry(uint64(2*k), 0)); err != nil { // even keys: odd ones are absent
			t.Fatal(err)
		}
	}
	root, _, _, err := tr.readHeader()
	if err != nil {
		t.Fatal(err)
	}
	rn, err := tr.readNode(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := 4*int(rn.height) + bits.Len(order-1) + 4
	found := 0
	fn := func(uint64) bool { found++; return true }
	worst := 0
	for k := 0; k < 2*n; k++ {
		calls, found = 0, 0
		if err := tr.Search(uint64(k), fn); err != nil {
			t.Fatal(err)
		}
		if want := 1 - k%2; found != want {
			t.Fatalf("key %d: found %d entries, want %d", k, found, want)
		}
		worst = max(worst, calls)
	}
	t.Logf("depth %d, order %d: worst point search made %d comparator calls (budget %d)", rn.height, order, worst, budget)
	if worst > budget {
		t.Errorf("a point search made %d comparator calls, budget 4·%d + %d + 4 = %d", worst, rn.height, bits.Len(order-1), budget)
	}

	var key any = uint64(2468)
	if a := testing.AllocsPerRun(200, func() {
		if err := tr.Search(key, fn); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Search over a lending pager: %.0f allocs per call", a)
	}
	lo, hi := any(uint64(1000)), any(uint64(1040))
	if a := testing.AllocsPerRun(200, func() {
		if err := tr.Range(lo, hi, fn); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Range over a lending pager: %.0f allocs per call", a)
	}
}
