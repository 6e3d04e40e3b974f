package mmdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/catalog"
	"mmdb/internal/heap"
	"mmdb/internal/mm"
	"mmdb/internal/simdisk"
)

var wideSchema = heap.Schema{
	{Name: "id", Type: heap.Int64},
	{Name: "grp", Type: heap.Int64},
	{Name: "pad", Type: heap.String},
}

// newWide creates a relation with a linear-hash pk on id and a T-Tree
// by_grp on grp, and n rows (grp = id reversed, pad of padLen bytes).
func newWide(t testing.TB, db *DB, n, padLen int) (*Relation, *Index, *Index) {
	t.Helper()
	rel, err := db.CreateRelation("wide", wideSchema)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := db.CreateIndex(rel, "pk", "id", KindLinHash, 8)
	if err != nil {
		t.Fatal(err)
	}
	byGrp, err := db.CreateIndex(rel, "by_grp", "grp", KindTTree, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 50 {
		tx := db.Begin()
		for k := i; k < i+50 && k < n; k++ {
			if _, err := tx.Insert(rel, heap.Tuple{int64(k), int64(n - 1 - k), strings.Repeat("p", padLen)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return rel, pk, byGrp
}

// TestIndexLookupRejectsNilKey: nil is an open bound of IndexRange; as a
// look-up key it used to be passed as both bounds — a scan of the whole
// T-Tree under IS — and to fail in the hash function on a hash index.
func TestIndexLookupRejectsNilKey(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	_, pk, byGrp := newWide(t, db, 40, 10)
	tx := db.Begin()
	defer tx.Abort()
	for _, idx := range []*Index{pk, byGrp} {
		rows := 0
		err := tx.IndexLookup(idx, nil, func(RowID, heap.Tuple) bool { rows++; return true })
		if !errors.Is(err, ErrNilKey) || rows != 0 {
			t.Errorf("%s: IndexLookup(nil) = %v after %d rows, want ErrNilKey and none", idx.Name(), err, rows)
		}
	}
	rows := 0
	if err := tx.IndexRange(byGrp, nil, nil, func(RowID, heap.Tuple) bool { rows++; return true }); err != nil || rows != 40 {
		t.Errorf("IndexRange(nil, nil) = %v after %d rows, want all 40", err, rows)
	}
	rows = 0
	if err := tx.IndexRange(byGrp, int64(30), nil, func(RowID, heap.Tuple) bool { rows++; return true }); err != nil || rows != 10 {
		t.Errorf("IndexRange(30, nil) = %v after %d rows, want 10", err, rows)
	}
}

// TestHashKeyIsFNV1a: stored hash words outlive the process, so the
// inlined hash must stay bit-identical to hash/fnv's New64a over the
// column's encoded bytes — for a search key and for the same value read
// out of a stored tuple.
func TestHashKeyIsFNV1a(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, err := db.CreateRelation("k", heap.Schema{{Name: "i", Type: heap.Int64}, {Name: "f", Type: heap.Float64}, {Name: "s", Type: heap.String}})
	if err != nil {
		t.Fatal(err)
	}
	want := func(b []byte) uint64 {
		h := fnv.New64a()
		_, _ = h.Write(b)
		return h.Sum64()
	}
	le := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	rows := []heap.Tuple{
		{int64(0), 0.0, ""},
		{int64(-1), math.Copysign(0, -1), "a"},
		{int64(math.MinInt64), math.Inf(1), strings.Repeat("long key ", 40)},
		{int64(1234567890123), 2.5, "héllo\x00"},
	}
	for col, name := range []string{"i", "f", "s"} {
		idx, err := db.CreateIndex(rel, "h_"+name, name, KindLinHash, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			var enc []byte
			switch v := row[col].(type) {
			case int64:
				enc = le(uint64(v))
			case float64:
				enc = le(math.Float64bits(v))
			case string:
				enc = []byte(v)
			}
			got, err := idx.hashKey(row[col])
			if err != nil || got != want(enc) {
				t.Errorf("hashKey(%#v) = %x, %v; hash/fnv says %x", row[col], got, err, want(enc))
			}
			tx := db.Begin()
			id, err := tx.Insert(rel, row)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := idx.hashEntry(id.Pack()); err != nil || got != want(enc) {
				t.Errorf("hashEntry of stored %#v = %x, %v; hash/fnv says %x", row[col], got, err, want(enc))
			}
			mustCommit(t, tx)
		}
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckConsistencyReadsWholeTuples: the indexes read only their key
// column, so a tuple with garbage after it still compares, hashes and is
// found by key — and CheckConsistency, which decodes every tuple in full,
// must still reject it.
func TestCheckConsistencyReadsWholeTuples(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	_, pk, _ := newWide(t, db, 30, 10)
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	var victim RowID
	tx := db.Begin()
	if err := tx.IndexLookup(pk, int64(7), func(id RowID, _ heap.Tuple) bool { victim = id; return false }); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	// Behind the engine's back: the same tuple with three bytes after its
	// last column.
	p, err := db.store.Partition(victim.Partition())
	if err != nil {
		t.Fatal(err)
	}
	p.Latch()
	raw, err := p.Read(victim.Slot)
	if err == nil {
		err = p.Update(victim.Slot, append(append([]byte(nil), raw...), 0xDE, 0xAD, 0x00))
	}
	p.Unlatch()
	if err != nil {
		t.Fatal(err)
	}
	if c, err := pk.compareKey(int64(7), victim.Pack()); err != nil || c != 0 {
		t.Fatalf("the key column of the damaged tuple no longer reads: %d, %v", c, err)
	}
	if err := db.CheckConsistency(); !errors.Is(err, heap.ErrCorruptTuple) {
		t.Fatalf("CheckConsistency = %v, want ErrCorruptTuple", err)
	}
	// A row handed to a caller gets the full decode too.
	tx = db.Begin()
	defer tx.Abort()
	if err := tx.IndexLookup(pk, int64(7), func(RowID, heap.Tuple) bool { return true }); !errors.Is(err, heap.ErrCorruptTuple) {
		t.Fatalf("IndexLookup of the damaged row = %v, want ErrCorruptTuple", err)
	}
}

// TestProbesWhileTuplesMove runs look-ups on both indexes while writers
// rewrite a non-key string column of the same rows with growing and
// shrinking values: every such update reallocates the tuple inside its
// partition and, the partitions being nearly full, keeps forcing
// compaction — the bytes a comparator is reading move. Every look-up must
// return exactly its row. Run under -race this is the check that a
// comparator only ever touches tuple bytes under the partition latch.
func TestProbesWhileTuplesMove(t *testing.T) {
	cfg := testConfig()
	cfg.UpdateThreshold = 1 << 30 // no checkpoints: this is about the read path
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const rows = 240
	rel, pk, byGrp := newWide(t, db, rows, 200)

	writes := 300
	if testing.Short() {
		writes = 80
	}
	var stop atomic.Bool
	var writers, probers sync.WaitGroup
	var moved, refused atomic.Int64
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for n := 0; n < writes; n++ {
				k := (n*7 + w*rows/2) % rows
				tx := db.Begin()
				var id RowID
				err := tx.IndexLookup(pk, int64(k), func(r RowID, _ heap.Tuple) bool { id = r; return false })
				if err == nil {
					// 40..360 bytes, so a partition's rows grow and shrink
					// around the 200 they were loaded with.
					err = tx.Update(rel, id, map[string]any{"pad": strings.Repeat("q", 40+(n*53+k)%320)})
				}
				if err == nil {
					err = tx.Commit()
				}
				switch {
				case err == nil:
					moved.Add(1)
				case errors.Is(err, mm.ErrPartitionFull), errors.Is(err, ErrDeadlock):
					// The row's partition has no room for the longer value,
					// or both writers met on one row: not this test's
					// subject.
					_ = tx.Abort()
					refused.Add(1)
				default:
					_ = tx.Abort()
					t.Errorf("writer %d row %d: %v", w, k, err)
					return
				}
			}
		}(w)
	}
	var probes atomic.Int64
	for r := 0; r < 2; r++ {
		probers.Add(1)
		go func(r int) {
			defer probers.Done()
			for n := 0; !stop.Load() && !t.Failed(); n++ {
				k := int64((n*11 + r*17) % rows)
				idx, key, col := pk, k, 0
				if n%2 == 1 {
					idx, key, col = byGrp, rows-1-k, 1
				}
				tx := db.Begin()
				hits := 0
				err := tx.IndexLookup(idx, key, func(_ RowID, tup heap.Tuple) bool {
					hits++
					if tup[0] != k || tup[col] != key {
						t.Errorf("%s look-up of %d returned row %v", idx.Name(), key, tup[:2])
					}
					return true
				})
				if err != nil || hits != 1 {
					t.Errorf("%s look-up of %d: %d rows, %v", idx.Name(), key, hits, err)
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("prober commit: %v", err)
				}
				probes.Add(1)
			}
		}(r)
	}
	writers.Wait() // the probers run for as long as tuples are moving
	stop.Store(true)
	probers.Wait()
	if moved.Load() < int64(writes) {
		t.Fatalf("only %d of %d size-changing updates went through (%d refused)", moved.Load(), 2*writes, refused.Load())
	}
	t.Logf("%d look-ups beside %d size-changing updates", probes.Load(), moved.Load())
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestLocateAgreesWithDescriptor: locate reads one track out of the
// owner's descriptor where it lies; it must answer what a decode of the
// whole descriptor answers, for freshly installed checkpoints and after a
// restart.
func TestLocateAgreesWithDescriptor(t *testing.T) {
	cfg := testConfig()
	cfg.UpdateThreshold = 1 << 30 // only the checkpoints this test asks for
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, pk, _ := newWide(t, db, 600, 300)
	db.WaitIdle()
	for _, seg := range []addr.SegmentID{rel.seg, pk.seg} {
		pid := addr.PartitionID{Segment: seg, Part: 1}
		db.mgr.RequestCheckpoint(pid)
		db.WaitIdle()
		track, err := db.locate(pid)
		if err != nil || track == simdisk.NilTrack {
			t.Fatalf("%v after its checkpoint: track %d, %v", pid, track, err)
		}
	}
	want, err := db.partsOfSegment(rel.seg)
	if err != nil {
		t.Fatal(err)
	}

	db2 := crashAndRecover(t, db, cfg)
	defer db2.Close()
	rel2, _ := db2.GetRelation("wide")
	got, err := db2.partsOfSegment(rel2.seg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || got[1].Track == simdisk.NilTrack {
		t.Fatalf("partition list after restart:\n got %v\nwant %v", got, want)
	}
	for _, ps := range got {
		track, err := db2.locate(addr.PartitionID{Segment: rel2.seg, Part: ps.Part})
		if err != nil || track != ps.Track {
			t.Fatalf("locate(part %d) = %d, %v; the decoded descriptor says %d", ps.Part, track, err, ps.Track)
		}
	}
	if _, err := db2.locate(addr.PartitionID{Segment: rel2.seg, Part: 9999}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("locate of an unlisted partition: %v", err)
	}
	tx := db2.Begin()
	defer tx.Abort()
	if n, err := tx.Count(rel2); err != nil || n != 600 {
		t.Fatalf("%d rows after restart, %v", n, err)
	}
	if err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestLocateRejectsDamagedDescriptor: locate walks the descriptor's bytes
// itself now; rot in them must come back as catalog.ErrCorrupt, not as a
// wrong track.
func TestLocateRejectsDamagedDescriptor(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, _, _ := newWide(t, db, 100, 300)
	o, err := db.owner(rel.seg)
	if err != nil {
		t.Fatal(err)
	}
	da := o.desc
	p, err := db.store.Partition(da.Partition())
	if err != nil {
		t.Fatal(err)
	}
	p.Latch()
	raw, err := p.Read(da.Slot)
	if err == nil {
		err = p.Update(da.Slot, raw[:len(raw)-3]) // the last entry loses its tail
	}
	p.Unlatch()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.locate(addr.PartitionID{Segment: rel.seg, Part: 0}); !errors.Is(err, catalog.ErrCorrupt) {
		t.Fatalf("locate over a cut descriptor: %v", err)
	}
}
