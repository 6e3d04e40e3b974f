package linhash

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mmdb/internal/addr"
)

// latchPager is a lending pager that polices the lending contract. One
// entity is lent at a time; nothing is lent while the pager is called or
// — through guard — while HashEntry or MatchKey runs; and what was lent is
// scribbled over at Unlock, so a walk that kept lent bytes reads garbage
// and the differential test sees it.
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

// newLatchedTable is a table over a latchPager whose callbacks fail the
// test when called with an entity lent.
func newLatchedTable(t testing.TB, order int) (*Table, *latchPager) {
	t.Helper()
	p := &latchPager{mapPager: newMapPager(), t: t}
	tb, _, err := Create(p, order,
		func(e uint64) (uint64, error) { p.guard("HashEntry"); return hashEntry(e) },
		func(key any, e uint64) (bool, error) { p.guard("MatchKey"); return matchKey(key, e) })
	if err != nil {
		t.Fatal(err)
	}
	return tb, p
}

// observe runs one walk, stopping it after limit entries (0: never), and
// returns all a caller can see of it.
func observe(walk func(fn func(uint64) bool) error, limit int) string {
	var entries []uint64
	err := walk(func(e uint64) bool {
		entries = append(entries, e)
		return len(entries) != limit
	})
	return fmt.Sprintf("%v err=%v", entries, err)
}

// compareWalks holds Lookup (random keys, present and absent) and Scan to
// the reference, early stops included.
func compareWalks(t *testing.T, tb *Table, rng *rand.Rand, keys, rounds int, what string) {
	t.Helper()
	ref := refOf(tb)
	for i := 0; i < rounds; i++ {
		k, limit := uint64(rng.Intn(keys+5)), rng.Intn(3)
		got := observe(func(fn func(uint64) bool) error { return tb.Lookup(k, keyHash(k), fn) }, limit)
		want := observe(func(fn func(uint64) bool) error { return ref.Lookup(k, keyHash(k), fn) }, limit)
		if got != want {
			t.Fatalf("%s: Lookup(%d) limit %d:\n got %s\nwant %s", what, k, limit, got, want)
		}
	}
	limit := rng.Intn(2) * rng.Intn(40)
	if got, want := observe(tb.Scan, limit), observe(ref.Scan, limit); got != want {
		t.Fatalf("%s: Scan limit %d:\n got %s\nwant %s", what, limit, got, want)
	}
}

// TestWalksMatchReference drives the table through random insert, delete
// and duplicate-key schedules at orders 2–32 (splits and chain unlinking
// included) and, as it goes, holds Lookup and Scan to the old
// unmarshal-everything walks. The pager lends and polices the lending
// contract throughout, mutations and Check included.
func TestWalksMatchReference(t *testing.T) {
	for _, order := range []int{2, 3, 4, 7, 16, 32} {
		order := order
		t.Run(fmt.Sprintf("order%d", order), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(order)))
			tb, p := newLatchedTable(t, order)
			const keys = 300
			present := map[uint64]bool{}
			steps := 4000
			if testing.Short() {
				steps = 800
			}
			for step := 0; step < steps; step++ {
				e := entry(uint64(rng.Intn(keys)), uint64(rng.Intn(3)))
				if present[e] {
					if err := tb.Delete(e); err != nil {
						t.Fatal(err)
					}
					delete(present, e)
				} else {
					if err := tb.Insert(e); err != nil {
						t.Fatal(err)
					}
					present[e] = true
				}
				if step%25 == 0 {
					compareWalks(t, tb, rng, keys, 10, fmt.Sprintf("step %d", step))
				}
				if step%400 == 0 {
					if err := tb.Check(); err != nil {
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

// TestWalkErrorsMatchReference damages one chain node or the header at a
// time — cut short, or claiming more than its bytes hold — and expects
// the in-place walks to report what the unmarshalling ones report, after
// the same entries.
func TestWalkErrorsMatchReference(t *testing.T) {
	for _, order := range []int{2, 5, 16} {
		rng := rand.New(rand.NewSource(int64(order) + 100))
		tb, p := newLatchedTable(t, order)
		const keys = 400
		for k := 0; k < keys; k++ {
			if err := tb.Insert(entry(uint64(k), 0)); err != nil {
				t.Fatal(err)
			}
		}
		h, err := tb.readHeader()
		if err != nil {
			t.Fatal(err)
		}
		inDirectory := map[addr.EntityAddr]bool{tb.Header(): true}
		for _, c := range h.chunks {
			inDirectory[c] = true
		}
		var nodes []addr.EntityAddr
		for a := range p.data {
			if !inDirectory[a] {
				nodes = append(nodes, a)
			}
		}
		for trial := 0; trial < 60; trial++ {
			a := nodes[rng.Intn(len(nodes))]
			good := p.data[a]
			bad := append([]byte(nil), good...)
			switch trial % 4 {
			case 0: // shorter than the fixed part
				bad = bad[:rng.Intn(nodeHeaderSize)]
			case 1: // the entries it counts are cut off
				count := int(binary.LittleEndian.Uint16(bad[8:]))
				bad = bad[:nodeHeaderSize+rng.Intn(16*count)]
			case 2: // counts more entries than there is room for
				binary.LittleEndian.PutUint16(bad[8:], uint16(order+1+rng.Intn(1000)))
			case 3: // the header instead: cut inside its fixed part or its chunk list
				a, good = tb.Header(), p.data[tb.Header()]
				bad = append([]byte(nil), good[:rng.Intn(len(good))]...)
			}
			p.data[a] = bad
			what := fmt.Sprintf("order %d trial %d (entity %v, %d of %d bytes)", order, trial, a, len(bad), len(good))
			compareWalks(t, tb, rng, keys, 40, what)
			if err := tb.Check(); err == nil {
				t.Fatalf("%s: Check passed it", what)
			}
			p.data[a] = good
		}
		if err := tb.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShortDirectoryChunk: the reference indexed a directory chunk
// without looking at its length; the in-place read reports a short one.
func TestShortDirectoryChunk(t *testing.T) {
	tb, p := newLatchedTable(t, 4)
	if err := tb.Insert(entry(1, 0)); err != nil {
		t.Fatal(err)
	}
	h, err := tb.readHeader()
	if err != nil {
		t.Fatal(err)
	}
	p.data[h.chunks[0]] = p.data[h.chunks[0]][:4]
	if err := tb.Scan(func(uint64) bool { return true }); err == nil || !strings.Contains(err.Error(), "directory chunk") {
		t.Fatalf("short directory chunk: %v", err)
	}
}

// TestCheckRecomputesStoredHash: an entry filed under a hash that is not
// its key's sits in the bucket that hash routes to, so every routing check
// passes — and no look-up by key will ever find the row. Check has the
// HashEntry; it must use it.
func TestCheckRecomputesStoredHash(t *testing.T) {
	tb, p := newLatchedTable(t, 4)
	for k := uint64(0); k < 200; k++ {
		if err := tb.Insert(entry(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
	h, err := tb.readHeader()
	if err != nil {
		t.Fatal(err)
	}
	// Plant the wrong hash through the pager: rewrite one stored hash word
	// with a different hash that routes to the same bucket.
	victim := entry(77, 0)
	planted := false
	for a, raw := range p.data {
		if a == tb.Header() || len(raw) != nodeHeaderSize+16*h.order {
			continue
		}
		n, err := refUnmarshalNode(raw)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range n.entries {
			if e != victim {
				continue
			}
			stale := n.hashes[i] + 1<<40 // same low bits, same bucket
			if h.bucketIndex(stale) != h.bucketIndex(n.hashes[i]) {
				t.Fatal("test bug: the planted hash routes elsewhere")
			}
			n.hashes[i] = stale
			if err := p.Update(a, marshalNode(n, h.order)); err != nil {
				t.Fatal(err)
			}
			planted = true
		}
	}
	if !planted {
		t.Fatal("victim entry not found")
	}
	if got := lookup(t, tb, 77); len(got) != 0 {
		t.Fatalf("the row is still reachable by key: %v", got)
	}
	err = tb.Check()
	if err == nil || !strings.Contains(err.Error(), "stores hash") {
		t.Fatalf("Check with a stale stored hash: %v", err)
	}
	// Without a HashEntry (as Create-time handles in the facade have none)
	// the structural checks still run and pass.
	bare, err := Open(p, tb.Header(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Check(); err != nil {
		t.Fatalf("Check without a HashEntry: %v", err)
	}
}

// FuzzNodeInPlace feeds arbitrary bytes to the chain-node reader the walks
// use and to the old unmarshaller: neither panics, they fail on exactly
// the same inputs with the same message, and read the same node otherwise
// — whether the pairs land in the caller's buffer or on the heap.
func FuzzNodeInPlace(f *testing.F) {
	for _, n := range []*node{
		{hashes: []uint64{9}, entries: []uint64{7}},
		{next: addr.EntityAddr{Segment: 6, Part: 1, Slot: 2}, hashes: []uint64{1, 2, 3}, entries: []uint64{4, 5, 6}},
	} {
		raw := marshalNode(n, 4)
		f.Add(raw)
		f.Add(raw[:nodeHeaderSize+5])
		f.Add(raw[:nodeHeaderSize-1])
	}
	over := marshalNode(&node{hashes: []uint64{1}, entries: []uint64{1}}, 2)
	binary.LittleEndian.PutUint16(over[8:], 300)
	f.Add(over)
	big := &node{hashes: make([]uint64, stackPairs+3), entries: make([]uint64, stackPairs+3)}
	f.Add(marshalNode(big, stackPairs+3))
	f.Fuzz(func(t *testing.T, raw []byte) {
		p := newMapPager()
		a, _ := p.Insert(raw)
		tb := &Table{pager: p, src: lenderOf(p)}
		want, wantErr := refUnmarshalNode(raw)
		var buf [2 * stackPairs]uint64
		next, pairs, err := tb.readPairs(a, &buf)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("readPairs: %v, unmarshalNode: %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if next != want.next || len(pairs) != 2*len(want.entries) {
			t.Fatalf("readPairs read next %v and %d words, unmarshalNode %v and %d entries", next, len(pairs), want.next, len(want.entries))
		}
		for i := range want.entries {
			if pairs[2*i] != want.hashes[i] || pairs[2*i+1] != want.entries[i] {
				t.Fatalf("pair %d: (%x, %x) vs (%x, %x)", i, pairs[2*i], pairs[2*i+1], want.hashes[i], want.entries[i])
			}
		}
	})
}

// lendingMapPager lends a mapPager's own bytes, with nothing to latch.
type lendingMapPager struct{ *mapPager }

func (p lendingMapPager) Lend(a addr.EntityAddr) ([]byte, sync.Locker, error) {
	d, err := p.mapPager.Read(a)
	return d, unlatched{}, err
}

// TestLookupAllocatesNothing: over a lending pager a look-up allocates
// nothing outside the callback, hit or miss.
func TestLookupAllocatesNothing(t *testing.T) {
	p := lendingMapPager{newMapPager()}
	tb, _, err := Create(p, 16, hashEntry, matchKey)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 3000; k += 2 {
		if err := tb.Insert(entry(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	found := 0
	fn := func(uint64) bool { found++; return true }
	for _, k := range []uint64{1234, 1235} {
		key, kh := any(k), keyHash(k)
		found = 0
		if a := testing.AllocsPerRun(200, func() {
			if err := tb.Lookup(key, kh, fn); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("Lookup(%d) over a lending pager: %.0f allocs per call", k, a)
		}
		if (found > 0) != (k%2 == 0) {
			t.Errorf("Lookup(%d) found %d entries", k, found)
		}
	}
}
