package mmdb

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"mmdb/internal/heap"
	"mmdb/internal/txn"
)

// rowBytes copies a row's stored bytes.
func rowBytes(t *testing.T, db *DB, id RowID) []byte {
	t.Helper()
	raw, err := txn.ReadPager{Store: db.store}.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRejectedUpdateLeavesIndexIntact: an update that names an unknown
// column or gives a value of the wrong type fails before it touches an
// index or the tuple, so committing the transaction afterwards leaves
// the database consistent and the row as it was.
func TestRejectedUpdateLeavesIndexIntact(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, err := db.CreateRelation("accounts", acctSchema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(rel, "by_balance", "balance", KindTTree, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(rel, "by_id", "id", KindLinHash, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(rel, "by_owner", "owner", KindTTree, 4); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	id, err := tx.Insert(rel, heap.Tuple{int64(1), 1.5, "alice"})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	before := rowBytes(t, db, id)

	for _, c := range []struct {
		changes map[string]any
		want    error
	}{
		{map[string]any{"balance": int64(2)}, heap.ErrSchemaMismatch},
		{map[string]any{"balance": "2"}, heap.ErrSchemaMismatch},
		{map[string]any{"owner": 2.0}, heap.ErrSchemaMismatch},
		{map[string]any{"owner": strings.Repeat("x", 70000)}, heap.ErrSchemaMismatch},
		{map[string]any{"ghost": int64(2)}, heap.ErrNoColumn},
		// Valid changes to indexed columns beside the bad one must not
		// apply either.
		{map[string]any{"id": int64(9), "owner": "bob", "balance": int64(2)}, heap.ErrSchemaMismatch},
		{map[string]any{"id": int64(9), "balance": 3.5, "ghost": 0}, heap.ErrNoColumn},
	} {
		tx := db.Begin()
		if err := tx.Update(rel, id, c.changes); !errors.Is(err, c.want) {
			t.Fatalf("Update(%v) = %v, want %v", c.changes, err, c.want)
		}
		mustCommit(t, tx)
		if err := db.CheckConsistency(); err != nil {
			t.Fatalf("after rejected Update(%v): %v", c.changes, err)
		}
		if got := rowBytes(t, db, id); !bytes.Equal(got, before) {
			t.Fatalf("after rejected Update(%v): row %x, was %x", c.changes, got, before)
		}
	}
}

// TestUpdateWritesChangedRuns: each run of adjacent changed columns is
// one log record, and a string that changes length makes the whole
// update one image record.
func TestUpdateWritesChangedRuns(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	schema := heap.Schema{
		{Name: "a", Type: heap.Int64},
		{Name: "b", Type: heap.Float64},
		{Name: "s", Type: heap.String},
		{Name: "c", Type: heap.Int64},
	}
	rel, err := db.CreateRelation("r", schema)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	id, err := tx.Insert(rel, heap.Tuple{int64(1), 2.0, "abc", int64(4)})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	for _, c := range []struct {
		changes map[string]any
		records int
		want    heap.Tuple
	}{
		{map[string]any{"a": int64(5), "b": 6.0}, 1, heap.Tuple{int64(5), 6.0, "abc", int64(4)}},
		{map[string]any{"a": int64(7), "c": int64(8)}, 2, heap.Tuple{int64(7), 6.0, "abc", int64(8)}},
		{map[string]any{"b": 1.0, "s": "xyz", "c": int64(9)}, 1, heap.Tuple{int64(7), 1.0, "xyz", int64(9)}},
		{map[string]any{"a": int64(1), "s": "longer", "c": int64(2)}, 1, heap.Tuple{int64(1), 1.0, "longer", int64(2)}},
		{map[string]any{"s": ""}, 1, heap.Tuple{int64(1), 1.0, "", int64(2)}},
	} {
		tx := db.Begin()
		if err := tx.Update(rel, id, c.changes); err != nil {
			t.Fatal(err)
		}
		if got := tx.Records(); got != c.records {
			t.Errorf("Update(%v) wrote %d records, want %d", c.changes, got, c.records)
		}
		got, err := tx.Get(rel, id)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(c.want) {
			t.Fatalf("after Update(%v): %v, want %v", c.changes, got, c.want)
		}
		mustCommit(t, tx)
	}
}

// TestUpdateAllocatesOnlyWhatItWrites changes the 8-byte column of a row
// that carries a 4 000-byte string: the update reads the stored tuple
// where it lies, so it allocates for the bytes it writes and logs, not
// for the row (the decode-and-re-encode update allocated ≈ 4.5 KB).
func TestUpdateAllocatesOnlyWhatItWrites(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, err := db.CreateRelation("wide", heap.Schema{
		{Name: "id", Type: heap.Int64},
		{Name: "bal", Type: heap.Float64},
		{Name: "pad", Type: heap.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	id, err := tx.Insert(rel, heap.Tuple{int64(1), 0.0, strings.Repeat("p", 4000)})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	const n = 2000
	tx = db.Begin()
	defer tx.Abort()
	if err := tx.Update(rel, id, map[string]any{"bal": -1.0}); err != nil { // takes the locks
		t.Fatal(err)
	}
	changes := map[string]any{"bal": 0.0}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		changes["bal"] = float64(i)
		if err := tx.Update(rel, id, changes); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	per := (m1.TotalAlloc - m0.TotalAlloc) / n
	t.Logf("%d B per Update", per)
	if per >= 512 {
		t.Fatalf("Update allocates %d B per call, want < 512", per)
	}
}

// TestUpdateToNegativeZeroRehashes: 0.0 and -0.0 are equal as floats but
// not as bytes, and a linear hash table files an entry under its key's
// bytes, so an update from one to the other moves the entry.
func TestUpdateToNegativeZeroRehashes(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, err := db.CreateRelation("accounts", acctSchema)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.CreateIndex(rel, "by_balance", "balance", KindLinHash, 4)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	id, err := tx.Insert(rel, heap.Tuple{int64(1), 0.0, "alice"})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	negZero := math.Copysign(0, -1)
	tx = db.Begin()
	if err := tx.Update(rel, id, map[string]any{"balance": negZero}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	defer tx.Abort()
	var found []RowID
	if err := tx.IndexLookup(idx, negZero, func(r RowID, _ heap.Tuple) bool { found = append(found, r); return true }); err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[0] != id {
		t.Fatalf("look-up of -0.0 found %v, want [%v]", found, id)
	}
}

// TestUpdatePastRecordOffsetWritesImage: a write record's offset is 16
// bits, so a column more than 64 KiB into a tuple (a partition may be
// larger) is updated through the whole image, and survives a crash.
func TestUpdatePastRecordOffsetWritesImage(t *testing.T) {
	cfg := testConfig()
	cfg.PartitionSize = 256 << 10
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("big", heap.Schema{
		{Name: "a", Type: heap.String},
		{Name: "b", Type: heap.String},
		{Name: "v", Type: heap.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := strings.Repeat("a", 40000), strings.Repeat("b", 30000)
	tx := db.Begin()
	id, err := tx.Insert(rel, heap.Tuple{a, b, int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	tx = db.Begin()
	if err := tx.Update(rel, id, map[string]any{"v": int64(2)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	db = crashAndRecover(t, db, cfg)
	defer db.Close()
	if rel, err = db.GetRelation("big"); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	defer tx.Abort()
	got, err := tx.Get(rel, id)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(heap.Tuple{a, b, int64(2)}) {
		t.Fatalf("after recovery v = %v, want 2", got[2])
	}
}
