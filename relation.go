package mmdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"mmdb/internal/addr"
	"mmdb/internal/catalog"
	"mmdb/internal/heap"
	"mmdb/internal/linhash"
	"mmdb/internal/lock"
	"mmdb/internal/ttree"
	"mmdb/internal/txn"
)

// Relation is a handle to a stored relation. Every relation occupies
// its own logical segment of fixed-size partitions.
type Relation struct {
	db     *DB
	relID  uint64
	name   string
	seg    addr.SegmentID
	schema heap.Schema

	// indexes is copy-on-write: DDL replaces the slice under idxMu, the
	// per-row paths load it without locking or copying.
	idxMu   sync.Mutex
	indexes atomic.Pointer[[]*Index]
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// ID returns the relation identifier.
func (r *Relation) ID() uint64 { return r.relID }

// Schema returns the relation's schema.
func (r *Relation) Schema() heap.Schema { return r.schema }

// Segment returns the relation's segment ID.
func (r *Relation) Segment() addr.SegmentID { return r.seg }

// Indexes returns the relation's indexes. The slice is shared and must
// not be modified.
func (r *Relation) Indexes() []*Index {
	if p := r.indexes.Load(); p != nil {
		return *p
	}
	return nil
}

// Index returns the named index, or nil.
func (r *Relation) Index(name string) *Index {
	for _, i := range r.Indexes() {
		if i.name == name {
			return i
		}
	}
	return nil
}

func (r *Relation) indexBySeg(seg addr.SegmentID) *Index {
	for _, i := range r.Indexes() {
		if i.seg == seg {
			return i
		}
	}
	return nil
}

func (r *Relation) addIndex(i *Index) {
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	next := append(slices.Clone(r.Indexes()), i)
	r.indexes.Store(&next)
}

func (r *Relation) removeIndex(i *Index) {
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	if j := slices.Index(r.Indexes(), i); j >= 0 {
		next := slices.Delete(slices.Clone(r.Indexes()), j, j+1)
		r.indexes.Store(&next)
	}
}

// Index is a handle to a T-Tree or Modified Linear Hash index on one
// relation column. Index nodes live in the index's own segment.
type Index struct {
	rel    *Relation
	idxID  uint64
	name   string
	seg    addr.SegmentID
	kind   catalog.IndexKind
	col    int
	order  int
	header addr.EntityAddr
	key    heap.Key // reads column col out of a stored tuple

	// latch serialises structure readers against in-flight node
	// mutations; transaction-level isolation comes from the per-index
	// writer lock held to commit.
	latch sync.RWMutex

	// The structure opened over the store for reading, by the first probe
	// that needs it (the header's partition may not be recovered before
	// that) and kept: a probe does not re-open its index.
	tree  atomic.Pointer[ttree.Tree]
	table atomic.Pointer[linhash.Table]
}

// newIndex builds the handle for a catalog descriptor.
func newIndex(rel *Relation, d *catalog.IndexDesc) (*Index, error) {
	key, err := rel.schema.Key(d.Column)
	if err != nil {
		return nil, fmt.Errorf("mmdb: index %q: %w", d.Name, err)
	}
	return &Index{rel: rel, idxID: d.IdxID, name: d.Name, seg: d.Seg, kind: d.Kind,
		col: d.Column, order: d.Order, header: d.Header, key: key}, nil
}

// Name returns the index name.
func (i *Index) Name() string { return i.name }

// Kind returns the index structure kind.
func (i *Index) Kind() catalog.IndexKind { return i.kind }

// Column returns the indexed column position.
func (i *Index) Column() int { return i.col }

// Relation returns the indexed relation.
func (i *Index) Relation() *Relation { return i.rel }

// The comparators below are the classic main-memory design: the index
// stores tuple pointers, a comparison reads the key out of the tuple
// where it lies. Each borrows the tuple from the store for the length of
// one column read; none is called with a latch held (ttree.Lender), since
// the borrow may have to recover the tuple's partition first. They read
// the store, not a transaction's view: an entry is taken out of every
// index before its tuple is deleted or its key rewritten.

// compareKey orders a search key against the key of a stored entry.
func (i *Index) compareKey(key any, entry uint64) (int, error) {
	raw, held, err := i.rel.db.store.Lend(addr.Unpack(entry))
	if err != nil {
		return 0, err
	}
	c, err := i.key.Compare(key, raw)
	held.Unlock()
	return c, err
}

// matchKey reports whether a stored entry's key equals the search key.
func (i *Index) matchKey(key any, entry uint64) (bool, error) {
	c, err := i.compareKey(key, entry)
	return c == 0, err
}

// compareEntries totally orders two stored entries: by key, duplicates
// by address. The first key is copied out — two tuples are never
// borrowed at once, they may share a partition.
func (i *Index) compareEntries(a, b uint64) (int, error) {
	var buf [64]byte
	ka, err := i.copyKey(buf[:0], a)
	if err != nil {
		return 0, err
	}
	raw, held, err := i.rel.db.store.Lend(addr.Unpack(b))
	if err != nil {
		return 0, err
	}
	kb, err := i.key.Field(raw)
	c := 0
	if err == nil {
		c = i.key.CompareFields(ka, kb)
	}
	held.Unlock()
	if err != nil || c != 0 {
		return c, err
	}
	switch {
	case a < b:
		return -1, nil
	case a > b:
		return 1, nil
	}
	return 0, nil
}

// copyKey appends the key bytes of a stored entry to dst.
func (i *Index) copyKey(dst []byte, entry uint64) ([]byte, error) {
	raw, held, err := i.rel.db.store.Lend(addr.Unpack(entry))
	if err != nil {
		return nil, err
	}
	defer held.Unlock()
	f, err := i.key.Field(raw)
	return append(dst, f...), err
}

// hashEntry hashes a stored entry's key.
func (i *Index) hashEntry(entry uint64) (uint64, error) {
	raw, held, err := i.rel.db.store.Lend(addr.Unpack(entry))
	if err != nil {
		return 0, err
	}
	defer held.Unlock()
	f, err := i.key.Field(raw)
	return fnv1a(f), err
}

// checkKeyType validates a search key against the indexed column type;
// nil is an open bound.
func (i *Index) checkKeyType(v any) error {
	if v == nil || i.key.Accepts(v) {
		return nil
	}
	return fmt.Errorf("mmdb: index %q wants %v keys, got %T", i.name, i.rel.schema[i.col].Type, v)
}

// hashKey hashes a search key as hashEntry hashes the same value stored:
// FNV-1a over the column's encoded bytes. Stored hashes outlive the
// process, so the function is fixed (TestHashKeyIsFNV1a).
func (i *Index) hashKey(v any) (uint64, error) {
	var b [8]byte
	switch x := v.(type) {
	case int64:
		binary.LittleEndian.PutUint64(b[:], uint64(x))
	case float64:
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	case string:
		return fnv1a(x), nil
	default:
		return 0, fmt.Errorf("mmdb: index %q cannot hash %T", i.name, v)
	}
	return fnv1a(b[:]), nil
}

// fnv1a is hash/fnv's New64a over b, without the hash.Hash.
func fnv1a[B string | []byte](b B) uint64 {
	h := uint64(14695981039346656037)
	for k := 0; k < len(b); k++ {
		h = (h ^ uint64(b[k])) * 1099511628211
	}
	return h
}

// openTree opens the T-Tree over the given pager.
func (i *Index) openTree(p ttree.Pager) (*ttree.Tree, error) {
	return ttree.Open(p, i.header, i.compareEntries, i.compareKey)
}

// openTable opens the linear hash table over the given pager.
func (i *Index) openTable(p linhash.Pager) (*linhash.Table, error) {
	return linhash.Open(p, i.header, i.hashEntry, i.matchKey)
}

// readTree returns the T-Tree opened over the store for reading.
func (i *Index) readTree() (*ttree.Tree, error) {
	if t := i.tree.Load(); t != nil {
		return t, nil
	}
	t, err := i.openTree(txn.ReadPager{Store: i.rel.db.store})
	if err == nil {
		i.tree.Store(t)
	}
	return t, err
}

// readTable returns the linear hash table opened over the store for
// reading.
func (i *Index) readTable() (*linhash.Table, error) {
	if t := i.table.Load(); t != nil {
		return t, nil
	}
	t, err := i.openTable(txn.ReadPager{Store: i.rel.db.store})
	if err == nil {
		i.table.Store(t)
	}
	return t, err
}

// CreateRelation creates a relation with the given schema. DDL is
// serialised and runs in its own transaction.
func (db *DB) CreateRelation(name string, schema heap.Schema) (*Relation, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	db.mu.RLock()
	_, dup := db.rels[name]
	closed := db.closed
	db.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if dup {
		return nil, fmt.Errorf("%w: relation %q", ErrExists, name)
	}

	relID := db.mgr.AllocRelID()
	seg := db.mgr.AllocSegID()
	db.store.EnsureSegment(seg)

	desc := &catalog.RelationDesc{RelID: relID, Name: name, Seg: seg, Schema: schema}
	t := db.mgr.Txns.Begin()
	if err := t.LockRelation(catalog.RelIDRelationCatalog, lock.IX); err != nil {
		_ = t.Abort()
		return nil, err
	}
	da, err := t.InsertEntity(addr.SegRelationCatalog, false, desc.Encode())
	if err != nil {
		_ = t.Abort()
		return nil, err
	}
	if err := t.Commit(); err != nil {
		_ = t.Abort()
		return nil, err
	}

	rel := &Relation{db: db, relID: relID, name: name, seg: seg, schema: append(heap.Schema(nil), schema...)}
	db.mu.Lock()
	db.rels[name] = rel
	db.relByID[relID] = rel
	db.segOwner[seg] = relID
	db.relDescAddr[relID] = da
	db.mu.Unlock()
	return rel, nil
}

// GetRelation returns the named relation.
func (db *DB) GetRelation(name string) (*Relation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rel, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("%w: relation %q", ErrNotFound, name)
	}
	return rel, nil
}

// Relations lists relation names.
func (db *DB) Relations() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.rels))
	for n := range db.rels {
		out = append(out, n)
	}
	return out
}

// CreateIndex builds an index of the given kind on one column,
// populating it from existing tuples. order is the node fan-out (0 for
// a default).
func (db *DB) CreateIndex(rel *Relation, name string, column string, kind catalog.IndexKind, order int) (*Index, error) {
	if order <= 0 {
		order = 16
	}
	col, err := rel.schema.ColIndex(column)
	if err != nil {
		return nil, err
	}
	switch kind {
	case catalog.KindTTree, catalog.KindLinHash:
	default:
		return nil, fmt.Errorf("mmdb: unknown index kind %v", kind)
	}
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	if rel.Index(name) != nil {
		return nil, fmt.Errorf("%w: index %q", ErrExists, name)
	}

	idxID := db.mgr.AllocIdxID()
	seg := db.mgr.AllocSegID()
	desc := &catalog.IndexDesc{IdxID: idxID, Name: name, RelID: rel.relID, Seg: seg, Kind: kind, Column: col, Order: order}
	idx, err := newIndex(rel, desc)
	if err != nil {
		return nil, err
	}
	db.store.EnsureSegment(seg)

	t := db.mgr.Txns.Begin()
	rollback := func(err error) (*Index, error) {
		_ = t.Abort()
		db.mu.Lock()
		delete(db.idxDescAddr, idxID)
		delete(db.segOwner, seg)
		db.mu.Unlock()
		rel.removeIndex(idx)
		return nil, err
	}
	// Lock out writers of the relation while the index is built.
	if err := t.LockRelation(rel.relID, lock.S); err != nil {
		return rollback(err)
	}
	if err := t.LockRelation(catalog.RelIDIndexCatalog, lock.IX); err != nil {
		return rollback(err)
	}
	da, err := t.InsertEntity(addr.SegIndexCatalog, false, desc.Encode())
	if err != nil {
		return rollback(err)
	}
	// Register maps before building: partition allocations during the
	// build look up the descriptor address.
	db.mu.Lock()
	db.idxDescAddr[idxID] = da
	db.segOwner[seg] = rel.relID
	db.mu.Unlock()
	rel.addIndex(idx)

	pager := txn.IndexPager{T: t, Seg: seg}
	switch kind {
	case catalog.KindTTree:
		_, hdr, err := ttree.Create(pager, order, nil, nil)
		if err != nil {
			return rollback(err)
		}
		idx.header = hdr
	case catalog.KindLinHash:
		_, hdr, err := linhash.Create(pager, order, nil, nil)
		if err != nil {
			return rollback(err)
		}
		idx.header = hdr
	}
	// Record the header address in the descriptor.
	desc.Header = idx.header
	raw, err := t.ReadEntity(da)
	if err != nil {
		return rollback(err)
	}
	cur, err := catalog.DecodeIndex(raw)
	if err != nil {
		return rollback(err)
	}
	cur.Header = idx.header
	if err := t.UpdateEntity(da, false, cur.Encode()); err != nil {
		return rollback(err)
	}
	// Populate from existing tuples.
	if err := db.populateIndex(t, idx); err != nil {
		return rollback(err)
	}
	if err := t.Commit(); err != nil {
		return rollback(err)
	}
	return idx, nil
}

// populateIndex inserts every existing tuple of the relation into the
// new index, inside the building transaction.
func (db *DB) populateIndex(t *txn.Txn, idx *Index) error {
	rel := idx.rel
	parts, err := db.partsOfSegment(rel.seg)
	if err != nil {
		return err
	}
	pager := txn.IndexPager{T: t, Seg: idx.seg}
	for _, ps := range parts {
		pid := addr.PartitionID{Segment: rel.seg, Part: ps.Part}
		p, err := db.store.Partition(pid)
		if err != nil {
			return err
		}
		var slots []addr.Slot
		p.Latch()
		p.Slots(func(s addr.Slot, _ []byte) bool {
			slots = append(slots, s)
			return true
		})
		p.Unlatch()
		for _, s := range slots {
			ea := addr.EntityAddr{Segment: rel.seg, Part: ps.Part, Slot: s}
			if err := idx.insertEntry(pager, ea.Pack()); err != nil {
				return err
			}
		}
	}
	return nil
}

// insertEntry adds one entry to the index structure (caller holds the
// index writer lock / build lock and the latch is taken here).
func (idx *Index) insertEntry(pager txn.IndexPager, entry uint64) error {
	idx.latch.Lock()
	defer idx.latch.Unlock()
	switch idx.kind {
	case catalog.KindTTree:
		tr, err := idx.openTree(pager)
		if err != nil {
			return err
		}
		return tr.Insert(entry)
	case catalog.KindLinHash:
		tb, err := idx.openTable(pager)
		if err != nil {
			return err
		}
		return tb.Insert(entry)
	}
	return fmt.Errorf("mmdb: unknown index kind %v", idx.kind)
}

// deleteEntry removes one entry from the index structure.
func (idx *Index) deleteEntry(pager txn.IndexPager, entry uint64) error {
	idx.latch.Lock()
	defer idx.latch.Unlock()
	switch idx.kind {
	case catalog.KindTTree:
		tr, err := idx.openTree(pager)
		if err != nil {
			return err
		}
		if err := tr.Delete(entry); err != nil && !errors.Is(err, ttree.ErrNotFound) {
			return err
		}
		return nil
	case catalog.KindLinHash:
		tb, err := idx.openTable(pager)
		if err != nil {
			return err
		}
		if err := tb.Delete(entry); err != nil && !errors.Is(err, linhash.ErrNotFound) {
			return err
		}
		return nil
	}
	return fmt.Errorf("mmdb: unknown index kind %v", idx.kind)
}
