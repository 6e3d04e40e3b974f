package mmdb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"mmdb/internal/heap"
	"mmdb/internal/lock"
)

// referenceUpdate is the update Txn.Update replaced, kept as the model
// the column-patch update is held to: decode the whole tuple, change a
// copy, and write either the one fixed-width column at a position-
// independent offset or the whole re-encoded image.
func referenceUpdate(tx *Txn, rel *Relation, id RowID, changes map[string]any) error {
	if len(changes) == 0 {
		return nil
	}
	if err := tx.t.LockRelation(rel.relID, lock.IX); err != nil {
		return err
	}
	if err := tx.t.LockEntity(id, lock.X); err != nil {
		return err
	}
	raw, held, err := tx.lendRow(id)
	if err != nil {
		return err
	}
	oldTup, err := rel.schema.Decode(raw)
	held.Unlock()
	if err != nil {
		return err
	}
	newTup := oldTup.Clone()
	cols := make([]int, 0, len(changes))
	for name, v := range changes {
		c, err := rel.schema.ColIndex(name)
		if err != nil {
			return err
		}
		newTup[c] = v
		cols = append(cols, c)
	}
	sort.Ints(cols)
	var touched []*Index
	for _, idx := range rel.Indexes() {
		changed := false
		for _, c := range cols {
			if c == idx.col && oldTup[c] != newTup[c] {
				changed = true
			}
		}
		if !changed {
			continue
		}
		if err := tx.maintain(idx, id, true); err != nil {
			return err
		}
		touched = append(touched, idx)
	}
	if off, ok := referenceFixedOffset(rel.schema, cols); ok {
		val, err := rel.schema.AppendValue(nil, cols[0], newTup[cols[0]])
		if err != nil {
			return err
		}
		if err := tx.t.WriteEntityAt(id, false, off, val); err != nil {
			return err
		}
	} else {
		enc, err := rel.schema.Encode(newTup)
		if err != nil {
			return err
		}
		if err := tx.t.UpdateEntity(id, false, enc); err != nil {
			return err
		}
	}
	for _, idx := range touched {
		if err := tx.maintain(idx, id, false); err != nil {
			return err
		}
	}
	return nil
}

// referenceFixedOffset is the offset of the one changed column when it
// and every column before it are fixed-width.
func referenceFixedOffset(s heap.Schema, cols []int) (int, bool) {
	if len(cols) != 1 {
		return 0, false
	}
	for _, c := range s[:cols[0]+1] {
		if !c.Type.Fixed() {
			return 0, false
		}
	}
	return 8 * cols[0], true
}

// diffSchema mixes fixed and string columns, each kind indexed both
// ways and unindexed: k, g and t sit in linear hash tables, f and s in
// T-Trees.
var diffSchema = heap.Schema{
	{Name: "k", Type: heap.Int64},
	{Name: "f", Type: heap.Float64},
	{Name: "s", Type: heap.String},
	{Name: "g", Type: heap.Float64},
	{Name: "n", Type: heap.Int64},
	{Name: "t", Type: heap.String},
	{Name: "u", Type: heap.String},
}

var diffIndexes = []struct {
	name, col string
	kind      IndexKind
}{
	{"h_k", "k", KindLinHash},
	{"t_f", "f", KindTTree},
	{"t_s", "s", KindTTree},
	{"h_g", "g", KindLinHash},
	{"h_t", "t", KindLinHash},
}

// diffValue draws a value for column c. Strings come from a small pool
// with equal-length alternatives and lengths that differ; f ranges over
// both zeros (a T-Tree orders them equal, their bytes differ), g over NaN.
func diffValue(rng *rand.Rand, c int) any {
	switch diffSchema[c].Name {
	case "k", "n":
		return rng.Int63n(6)
	case "f":
		return []float64{math.Copysign(0, -1), 0, 1.5, -2}[rng.Intn(4)]
	case "g":
		return []float64{math.NaN(), 1, 2}[rng.Intn(3)]
	case "u":
		return strings.Repeat("u", rng.Intn(64))
	}
	return []string{"", "a", "b", "ab", "ba", "abc"}[rng.Intn(6)]
}

func diffTuple(rng *rand.Rand) heap.Tuple {
	tup := make(heap.Tuple, len(diffSchema))
	for c := range tup {
		tup[c] = diffValue(rng, c)
	}
	return tup
}

// diffDB is one side of the differential test.
type diffDB struct {
	db     *DB
	cfg    Config
	update func(*Txn, *Relation, RowID, map[string]any) error
}

func (d *diffDB) rel(t *testing.T) *Relation {
	t.Helper()
	rel, err := d.db.GetRelation("r")
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// indexEntries lists an index's entries, sorted.
func indexEntries(t *testing.T, idx *Index) []uint64 {
	t.Helper()
	idx.latch.RLock()
	defer idx.latch.RUnlock()
	var out []uint64
	s, err := idx.read()
	if err == nil {
		err = s.walk(func(e uint64) bool { out = append(out, e); return true })
	}
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
}

// sameState requires both sides to hold the same tuple bytes and index
// entries, each consistent, and the rows to read as want.
func sameState(t *testing.T, when string, a, b *diffDB, ids []RowID, want [][]byte) {
	t.Helper()
	for _, d := range []*diffDB{a, b} {
		if err := d.db.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	for i, id := range ids {
		ra, rb := rowBytes(t, a.db, id), rowBytes(t, b.db, id)
		if !bytes.Equal(ra, rb) {
			t.Fatalf("%s: row %v: model %x, update %x", when, id, ra, rb)
		}
		if want != nil && !bytes.Equal(rb, want[i]) {
			t.Fatalf("%s: row %v: %x, want %x", when, id, rb, want[i])
		}
	}
	relA, relB := a.rel(t), b.rel(t)
	for _, ix := range diffIndexes {
		ea, eb := indexEntries(t, relA.Index(ix.name)), indexEntries(t, relB.Index(ix.name))
		if !slices.Equal(ea, eb) {
			t.Fatalf("%s: index %s: model %x, update %x", when, ix.name, ea, eb)
		}
		if len(eb) != len(ids) {
			t.Fatalf("%s: index %s has %d entries for %d rows", when, ix.name, len(eb), len(ids))
		}
	}
}

// TestUpdateMatchesReference drives the same random multi-column changes
// through the decode-and-re-encode model and through Txn.Update, on two
// databases: after every commit the tuples and index entries agree byte
// for byte, an abort restores the rows exactly, and so does a crash.
func TestUpdateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	model := &diffDB{cfg: testConfig(), update: referenceUpdate}
	patch := &diffDB{cfg: testConfig(), update: (*Txn).Update}
	const rows = 24
	var ids []RowID
	for _, d := range []*diffDB{model, patch} {
		db, err := Open(d.cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.db = db
		rel, err := db.CreateRelation("r", diffSchema)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range diffIndexes {
			if _, err := db.CreateIndex(rel, ix.name, ix.col, ix.kind, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer func() { model.db.Close(); patch.db.Close() }()
	tuples := make([]heap.Tuple, rows)
	for i := range tuples {
		tuples[i] = diffTuple(rng)
	}
	for _, d := range []*diffDB{model, patch} {
		tx := d.db.Begin()
		var got []RowID
		for _, tup := range tuples {
			id, err := tx.Insert(d.rel(t), tup)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, id)
		}
		mustCommit(t, tx)
		if ids != nil && !slices.Equal(ids, got) {
			t.Fatalf("row ids differ: %v vs %v", ids, got)
		}
		ids = got
	}
	committed := make([][]byte, rows)
	for i, id := range ids {
		committed[i] = rowBytes(t, patch.db, id)
	}
	sameState(t, "after load", model, patch, ids, committed)

	steps := 300
	if testing.Short() {
		steps = 80
	}
	for step := 0; step < steps; step++ {
		// A transaction of one to three updates, each changing a random
		// set of columns; a quarter of the changes restate the stored
		// value.
		type change struct {
			row     int
			changes map[string]any
		}
		var txnChanges []change
		for u := 1 + rng.Intn(3); u > 0; u-- {
			row := rng.Intn(rows)
			cur, err := diffSchema.Decode(rowBytes(t, patch.db, ids[row]))
			if err != nil {
				t.Fatal(err)
			}
			changes := map[string]any{}
			for _, c := range rng.Perm(len(diffSchema))[:1+rng.Intn(len(diffSchema))] {
				if rng.Intn(4) == 0 {
					changes[diffSchema[c].Name] = cur[c]
				} else {
					changes[diffSchema[c].Name] = diffValue(rng, c)
				}
			}
			txnChanges = append(txnChanges, change{row, changes})
		}
		abort := rng.Intn(4) == 0
		for _, d := range []*diffDB{model, patch} {
			tx := d.db.Begin()
			rel := d.rel(t)
			for _, c := range txnChanges {
				if err := d.update(tx, rel, ids[c.row], c.changes); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if abort {
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
			} else {
				mustCommit(t, tx)
			}
		}
		if !abort {
			for i, id := range ids {
				committed[i] = rowBytes(t, patch.db, id)
			}
		}
		sameState(t, fmt.Sprintf("step %d (abort %v)", step, abort), model, patch, ids, committed)
		if step%60 == 59 {
			for _, d := range []*diffDB{model, patch} {
				d.db = crashAndRecover(t, d.db, d.cfg)
			}
			sameState(t, fmt.Sprintf("recovery after step %d", step), model, patch, ids, committed)
		}
	}
}
