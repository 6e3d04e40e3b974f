package linhash

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mmdb/internal/addr"
)

// countingPager counts the writes (inserts, updates and deletes) to each
// entity, the inserts and the deletes since the last reset, and the bytes
// written in all.
type countingPager struct {
	*mapPager
	writes           map[addr.EntityAddr]int
	inserts, deletes int
	bytes            int
}

func newCountingPager() *countingPager {
	return &countingPager{mapPager: newMapPager(), writes: map[addr.EntityAddr]int{}}
}

func (p *countingPager) reset() {
	clear(p.writes)
	p.inserts, p.deletes = 0, 0
}

func (p *countingPager) Insert(data []byte) (addr.EntityAddr, error) {
	a, err := p.mapPager.Insert(data)
	p.writes[a]++
	p.inserts++
	p.bytes += len(data)
	return a, err
}

func (p *countingPager) Update(a addr.EntityAddr, data []byte) error {
	p.writes[a]++
	p.bytes += len(data)
	return p.mapPager.Update(a, data)
}

func (p *countingPager) Delete(a addr.EntityAddr) error {
	p.writes[a]++
	p.deletes++
	return p.mapPager.Delete(a)
}

// twice names an entity written more than once since the last reset.
func (p *countingPager) twice() (addr.EntityAddr, int, bool) {
	for a, n := range p.writes {
		if n > 1 {
			return a, n, true
		}
	}
	return addr.Nil, 0, false
}

// buckets returns every bucket's entries, each bucket's sorted.
func buckets(t *testing.T, tb *Table) [][]uint64 {
	t.Helper()
	n, err := tb.Buckets()
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]uint64, n)
	var buf [2 * stackPairs]uint64
	for b := range out {
		a, err := tb.headOfBucket(uint32(b))
		if err != nil {
			t.Fatal(err)
		}
		for !a.IsNil() {
			next, pairs, err := tb.readPairs(a, &buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(pairs); i += 2 {
				out[b] = append(out[b], pairs[i])
			}
			a = next
		}
		slices.Sort(out[b])
	}
	return out
}

// TestMutationsMatchReference drives random insert and delete runs, with
// duplicate keys, absent deletes and enough growth to open directory
// chunks, through Insert and Delete and through the per-entry split kept
// in reference_test.go, each on its own pager. After every step both
// tables hold the same entries in every bucket, report the same errors
// and pass Check; no entity is written twice within one mutation; and the
// whole run writes fewer bytes than the reference's.
func TestMutationsMatchReference(t *testing.T) {
	for _, order := range []int{2, 3, 4, 7, 16} {
		t.Run(fmt.Sprintf("order%d", order), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(order) * 7))
			p := newCountingPager()
			tb, _, err := Create(p, order, hashEntry, matchKey)
			if err != nil {
				t.Fatal(err)
			}
			rp := newCountingPager()
			rt, _, err := Create(rp, order, hashEntry, matchKey)
			if err != nil {
				t.Fatal(err)
			}
			ref := refOf(rt)
			keys, steps := 150*order, 3000
			if testing.Short() {
				steps = 1200
			}
			present := map[uint64]bool{}
			for step := 0; step < steps; step++ {
				e := entry(uint64(rng.Intn(keys)), uint64(rng.Intn(3)))
				// Grow for the first two thirds, then mostly shrink.
				del := present[e] || rng.Intn(8) == 0
				if step > 2*steps/3 {
					del = rng.Intn(4) != 0
				}
				p.reset()
				var got, want error
				if del {
					got, want = tb.Delete(e), ref.Delete(e)
					delete(present, e)
				} else {
					got, want = tb.Insert(e), ref.Insert(e)
					present[e] = true
				}
				if !errors.Is(got, want) {
					t.Fatalf("step %d (delete %v of %x): %v, reference %v", step, del, e, got, want)
				}
				if a, n, ok := p.twice(); ok {
					t.Fatalf("step %d (delete %v of %x): entity %v written %d times", step, del, e, a, n)
				}
				if step%50 == 0 || step == steps-1 {
					if g, w := buckets(t, tb), buckets(t, rt); !slices.EqualFunc(g, w, slices.Equal[[]uint64]) {
						t.Fatalf("step %d: buckets\n got %v\nwant %v", step, g, w)
					}
					for _, x := range []*Table{tb, rt} {
						if err := x.Check(); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
				}
			}
			h, err := tb.readHeader()
			if err != nil {
				t.Fatal(err)
			}
			if order <= 4 && len(h.chunks) < 2 {
				t.Fatalf("the run never opened a second directory chunk (%d buckets)", h.nbuckets)
			}
			if p.bytes >= rp.bytes {
				t.Fatalf("wrote %d bytes, the reference %d", p.bytes, rp.bytes)
			}
			t.Logf("order %d: %d buckets, %d chunks; wrote %d bytes, the reference %d", order, h.nbuckets, len(h.chunks), p.bytes, rp.bytes)
		})
	}
}

// chainLen returns the number of nodes in bucket b's chain.
func chainLen(t *testing.T, tb *Table, b uint32) int {
	t.Helper()
	a, err := tb.headOfBucket(b)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var buf [2 * stackPairs]uint64
	for ; !a.IsNil(); n++ {
		if a, _, err = tb.readPairs(a, &buf); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestSplitWritesEachEntityOnce inserts, one at a time, into tables that
// split every few inserts: the split bucket's chain several nodes long,
// the new entry routed to the splitting bucket or elsewhere, the new
// bucket opening a directory chunk. No Insert writes an entity twice, and
// a split rewrites the old chain's nodes: it inserts a node only for what
// the two new chains need beyond them, and deletes only what they leave.
func TestSplitWritesEachEntityOnce(t *testing.T) {
	for _, order := range []int{2, 5} {
		p := newCountingPager()
		tb, _, err := Create(p, order, hashEntry, matchKey)
		if err != nil {
			t.Fatal(err)
		}
		splits, opened := 0, 0
		for k := uint64(0); k < 2000; k++ {
			before, err := tb.readHeader()
			if err != nil {
				t.Fatal(err)
			}
			old := chainLen(t, tb, before.next)
			p.reset()
			if err := tb.Insert(entry(k%700, k/700)); err != nil {
				t.Fatal(err)
			}
			if a, n, ok := p.twice(); ok {
				t.Fatalf("order %d insert %d: entity %v written %d times", order, k, a, n)
			}
			after, err := tb.readHeader()
			if err != nil {
				t.Fatal(err)
			}
			if after.nbuckets == before.nbuckets {
				continue
			}
			splits++
			chunks := len(after.chunks) - len(before.chunks)
			opened += chunks
			rebuilt := chainLen(t, tb, before.next) + chainLen(t, tb, before.nbuckets)
			// One node insert may be the entry's own, into another bucket.
			if extra := p.inserts - chunks - max(0, rebuilt-old); extra != 0 && extra != 1 {
				t.Fatalf("order %d insert %d: %d inserts (%d chunks) for %d nodes rebuilt over %d", order, k, p.inserts, chunks, rebuilt, old)
			}
			if p.deletes != max(0, old-rebuilt) {
				t.Fatalf("order %d insert %d: %d deletes for %d nodes rebuilt over %d", order, k, p.deletes, rebuilt, old)
			}
		}
		if splits < 100 || opened == 0 {
			t.Fatalf("order %d: %d splits, %d opened chunks", order, splits, opened)
		}
		if err := tb.Check(); err != nil {
			t.Fatal(err)
		}
	}
}
