package mmdb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"mmdb/internal/addr"
	"mmdb/internal/catalog"
	"mmdb/internal/heap"
	"mmdb/internal/lock"
	"mmdb/internal/txn"
)

// RowID identifies a stored tuple: its entity address.
type RowID = addr.EntityAddr

// NewRowID builds a RowID from raw segment/partition/slot numbers
// (tools and tests that print and re-parse row ids).
func NewRowID(seg, part uint32, slot uint16) RowID {
	return RowID{Segment: addr.SegmentID(seg), Part: addr.PartitionNum(part), Slot: addr.Slot(slot)}
}

// ErrDeadlock is returned when a lock request would deadlock; the
// transaction has not been aborted — the caller decides (typically
// Abort and retry).
var ErrDeadlock = lock.ErrDeadlock

// Txn is a user transaction. Not safe for concurrent use by multiple
// goroutines.
type Txn struct {
	db *DB
	t  *txn.Txn
}

// Begin starts a transaction.
func (db *DB) Begin() *Txn {
	return &Txn{db: db, t: db.mgr.Txns.Begin()}
}

// ID returns the transaction identifier.
func (tx *Txn) ID() uint64 { return tx.t.ID() }

// Commit makes the transaction durable (instantly — its REDO records
// are already in stable memory) and releases its locks.
func (tx *Txn) Commit() error { return tx.t.Commit() }

// Abort rolls the transaction back and releases its locks.
func (tx *Txn) Abort() error { return tx.t.Abort() }

// Records returns the number of REDO log records written so far.
func (tx *Txn) Records() int { return tx.t.Records() }

// Insert adds a tuple to the relation, maintaining its indexes, and
// returns the new row's ID.
func (tx *Txn) Insert(rel *Relation, tuple heap.Tuple) (RowID, error) {
	enc, err := rel.schema.Encode(tuple)
	if err != nil {
		return RowID{}, err
	}
	if err := tx.t.LockRelation(rel.relID, lock.IX); err != nil {
		return RowID{}, err
	}
	a, err := tx.t.InsertEntity(rel.seg, false, enc)
	if err != nil {
		return RowID{}, err
	}
	if err := tx.t.LockEntity(a, lock.X); err != nil {
		return RowID{}, err
	}
	for _, idx := range rel.Indexes() {
		if err := tx.maintain(idx, a, false); err != nil {
			return RowID{}, err
		}
	}
	return a, nil
}

// maintain takes idx's writer lock, held to commit, and adds row id's entry
// to it, or takes the entry out when remove is set.
func (tx *Txn) maintain(idx *Index, id RowID, remove bool) error {
	if err := tx.t.LockIndex(idx.idxID, lock.X); err != nil {
		return err
	}
	return idx.change(txn.IndexPager{T: tx.t, Seg: idx.seg}, id.Pack(), remove)
}

// Get reads a tuple by row ID under a share lock. The tuple's bytes are
// decoded where they lie, not copied first.
func (tx *Txn) Get(rel *Relation, id RowID) (heap.Tuple, error) {
	if err := tx.t.LockRelation(rel.relID, lock.IS); err != nil {
		return nil, err
	}
	if err := tx.t.LockEntity(id, lock.S); err != nil {
		return nil, err
	}
	raw, held, err := tx.lendRow(id)
	if err != nil {
		return nil, err
	}
	defer held.Unlock()
	return rel.schema.Decode(raw)
}

// lendRow borrows the row's bytes (txn.Txn.LendEntity); a missing row is
// the facade's ErrNotFound.
func (tx *Txn) lendRow(id RowID) ([]byte, sync.Locker, error) {
	raw, held, err := tx.t.LendEntity(id)
	if errors.Is(err, txn.ErrNotFound) {
		err = fmt.Errorf("%w: row %v", ErrNotFound, id)
	}
	return raw, held, err
}

// patch is one changed column of an Update: its new encoding is
// enc[from:to] of the update's buffer, its stored one tuple[off:end].
type patch struct {
	col                int
	val                any
	from, to, off, end int
	same               bool // the stored bytes already equal the new ones
}

// Update applies column changes to a row, maintaining the indexes whose
// key bytes change. Every change is resolved and type-checked before
// anything is touched, and the stored tuple is read where it lies, never
// decoded. Each run of adjacent changed columns is one in-place write
// record with range-sized UNDO — the paper's 8–24 byte REDO record
// (§2.3.2). Only when a string changes length (or a column lies past a
// record's 16-bit offset) is the whole new image, spliced from the
// stored one, written and logged.
func (tx *Txn) Update(rel *Relation, id RowID, changes map[string]any) error {
	if len(changes) == 0 {
		return nil
	}
	var few [8]patch // a few changes' patches stay on the stack
	ps := few[:0]
	for name, v := range changes {
		c, err := rel.schema.ColIndex(name)
		if err != nil {
			return err
		}
		ps = append(ps, patch{col: c, val: v})
	}
	slices.SortFunc(ps, func(a, b patch) int { return a.col - b.col })
	enc := make([]byte, 0, 8*len(ps))
	for i := range ps {
		p := &ps[i]
		var err error
		p.from = len(enc)
		if enc, err = rel.schema.AppendValue(enc, p.col, p.val); err != nil {
			return err
		}
		p.to = len(enc)
	}
	if err := tx.t.LockRelation(rel.relID, lock.IX); err != nil {
		return err
	}
	if err := tx.t.LockEntity(id, lock.X); err != nil {
		return err
	}
	img, err := tx.locate(rel, id, ps, enc)
	if err != nil {
		return err
	}
	// Index maintenance: delete old entries before the tuple bytes
	// change (comparators read the stored tuple), reinsert after.
	var touched []*Index
	for _, idx := range rel.Indexes() {
		if !slices.ContainsFunc(ps, func(p patch) bool { return p.col == idx.col && !p.same }) {
			continue
		}
		if err := tx.maintain(idx, id, true); err != nil {
			return err
		}
		touched = append(touched, idx)
	}
	if img != nil {
		err = tx.t.UpdateEntity(id, false, img)
	} else {
		// One write per run of adjacent columns: their new encodings
		// are adjacent in enc too.
		for i, j := 0, 0; i < len(ps) && err == nil; i = j {
			for j = i + 1; j < len(ps) && ps[j].col == ps[j-1].col+1; j++ {
			}
			err = tx.t.WriteEntityAt(id, false, ps[i].off, enc[ps[i].from:ps[j-1].to])
		}
	}
	if err != nil {
		return err
	}
	for _, idx := range touched {
		if err := tx.maintain(idx, id, false); err != nil {
			return err
		}
	}
	return nil
}

// locate fills in each patch's stored span from the lent tuple, which it
// checks as Decode would. When a patch changes its column's length, or
// starts past what a write record's 16-bit offset addresses, it returns
// the tuple's new image, spliced from the stored bytes and enc;
// otherwise nil, and the patches are written in place.
func (tx *Txn) locate(rel *Relation, id RowID, ps []patch, enc []byte) ([]byte, error) {
	raw, held, err := tx.lendRow(id)
	if err != nil {
		return nil, err
	}
	defer held.Unlock()
	var buf [16]int
	offs, err := rel.schema.Layout(raw, buf[:0])
	if err != nil {
		return nil, err
	}
	size, whole := len(raw), false
	for i := range ps {
		p := &ps[i]
		p.off, p.end = offs[p.col], offs[p.col+1]
		p.same = bytes.Equal(raw[p.off:p.end], enc[p.from:p.to])
		whole = whole || p.to-p.from != p.end-p.off || p.off > math.MaxUint16
		size += (p.to - p.from) - (p.end - p.off)
	}
	if !whole {
		return nil, nil
	}
	img, prev := make([]byte, 0, size), 0
	for _, p := range ps {
		img = append(append(img, raw[prev:p.off]...), enc[p.from:p.to]...)
		prev = p.end
	}
	return append(img, raw[prev:]...), nil
}

// Delete removes a row and its index entries. The physical tuple
// removal is deferred to commit; index node changes are immediate and
// undone on abort.
func (tx *Txn) Delete(rel *Relation, id RowID) error {
	if err := tx.t.LockRelation(rel.relID, lock.IX); err != nil {
		return err
	}
	if err := tx.t.LockEntity(id, lock.X); err != nil {
		return err
	}
	_, held, err := tx.lendRow(id)
	if err != nil {
		return err
	}
	held.Unlock()
	// Remove index entries while the tuple is still readable (the
	// comparators need its key).
	for _, idx := range rel.Indexes() {
		if err := tx.maintain(idx, id, true); err != nil {
			return err
		}
	}
	return tx.t.DeleteEntity(id)
}

// Scan visits every tuple of the relation in storage order under a
// relation share lock; fn returns false to stop.
func (tx *Txn) Scan(rel *Relation, fn func(id RowID, tuple heap.Tuple) bool) error {
	if err := tx.t.LockRelation(rel.relID, lock.S); err != nil {
		return err
	}
	parts, err := tx.db.partsOfSegment(rel.seg)
	if err != nil {
		return err
	}
	for _, ps := range parts {
		pid := addr.PartitionID{Segment: rel.seg, Part: ps.Part}
		p, err := tx.db.store.Partition(pid) // recovers on demand
		if err != nil {
			return err
		}
		type row struct {
			s    addr.Slot
			data []byte
		}
		var rows []row
		p.Latch()
		p.Slots(func(s addr.Slot, data []byte) bool {
			rows = append(rows, row{s, append([]byte(nil), data...)})
			return true
		})
		p.Unlatch()
		for _, r := range rows {
			id := RowID{Segment: rel.seg, Part: ps.Part, Slot: r.s}
			if tx.t.PendingDelete(id) {
				continue
			}
			tup, err := rel.schema.Decode(r.data)
			if err != nil {
				return err
			}
			if !fn(id, tup) {
				return nil
			}
		}
	}
	return nil
}

// Count returns the number of tuples in the relation.
func (tx *Txn) Count(rel *Relation) (int, error) {
	n := 0
	err := tx.Scan(rel, func(RowID, heap.Tuple) bool { n++; return true })
	return n, err
}

// ErrNilKey is returned by IndexLookup for a nil key: nil is an open
// bound of IndexRange, not a value a row can equal.
var ErrNilKey = errors.New("mmdb: nil look-up key")

// IndexLookup finds rows whose indexed column equals key. Matches are
// re-validated under entity share locks after the index probe, so
// entries from uncommitted or aborted transactions are never returned.
func (tx *Txn) IndexLookup(idx *Index, key any, fn func(id RowID, tuple heap.Tuple) bool) error {
	if key == nil {
		return fmt.Errorf("%w (index %q)", ErrNilKey, idx.name)
	}
	return tx.visit(idx, key, key, fn)
}

// IndexRange visits rows with lo <= key <= hi in key order (T-Tree
// indexes only; nil bounds are unbounded).
func (tx *Txn) IndexRange(idx *Index, lo, hi any, fn func(id RowID, tuple heap.Tuple) bool) error {
	if idx.kind != KindTTree {
		return fmt.Errorf("mmdb: IndexRange requires a T-Tree index, %q is %v", idx.name, idx.kind)
	}
	return tx.visit(idx, lo, hi, fn)
}

// visit is the body of both: probe, then validate and report.
func (tx *Txn) visit(idx *Index, lo, hi any, fn func(id RowID, tuple heap.Tuple) bool) error {
	if err := tx.t.LockRelation(idx.rel.relID, lock.IS); err != nil {
		return err
	}
	var few [8]uint64 // a point look-up's candidates stay on the stack
	entries, err := tx.probe(idx, lo, hi, few[:0])
	if err != nil {
		return err
	}
	return tx.validateAndVisit(idx, lo, hi, entries, fn)
}

// probe appends the candidate entries to out under the index read latch,
// without taking tuple locks (lock acquisition under a latch could
// deadlock undetectably, §2.5's latch discussion).
func (tx *Txn) probe(idx *Index, lo, hi any, out []uint64) ([]uint64, error) {
	if err := idx.checkKeyType(lo); err != nil {
		return nil, err
	}
	if err := idx.checkKeyType(hi); err != nil {
		return nil, err
	}
	idx.latch.RLock()
	defer idx.latch.RUnlock()
	s, err := idx.read()
	if err != nil {
		return nil, err
	}
	return s.probe(lo, hi, out)
}

// validateAndVisit locks and re-reads each candidate, dropping rows
// that vanished or whose key no longer falls in [lo, hi]. The key is
// checked on the borrowed bytes; a row that passes gets the full Decode,
// still from those bytes.
func (tx *Txn) validateAndVisit(idx *Index, lo, hi any, entries []uint64, fn func(RowID, heap.Tuple) bool) error {
	for _, e := range entries {
		id := addr.Unpack(e)
		if err := tx.t.LockEntity(id, lock.S); err != nil {
			return err
		}
		raw, held, err := tx.t.LendEntity(id)
		if err != nil {
			if errors.Is(err, txn.ErrNotFound) {
				continue // deleted between probe and lock
			}
			return err
		}
		var tup heap.Tuple
		in, err := idx.inRange(lo, hi, raw)
		if in && err == nil {
			tup, err = idx.rel.schema.Decode(raw)
		}
		held.Unlock()
		if err != nil {
			return err
		}
		if in && !fn(id, tup) {
			return nil
		}
	}
	return nil
}

// inRange reports whether the encoded tuple's key lies in [lo, hi].
func (idx *Index) inRange(lo, hi any, tuple []byte) (bool, error) {
	if lo != nil {
		if c, err := idx.key.Compare(lo, tuple); err != nil || c > 0 {
			return false, err
		}
	}
	if hi != nil {
		if c, err := idx.key.Compare(hi, tuple); err != nil || c < 0 {
			return false, err
		}
	}
	return true, nil
}

// IndexKind and the kind constants are re-exported for callers.
type IndexKind = catalog.IndexKind

// Index kinds.
const (
	KindTTree   = catalog.KindTTree
	KindLinHash = catalog.KindLinHash
)
