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

// segments lists the relation's segment, then its indexes'.
func (r *Relation) segments() []addr.SegmentID {
	segs := []addr.SegmentID{r.seg}
	for _, i := range r.Indexes() {
		segs = append(segs, i.seg)
	}
	return segs
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
	reader atomic.Pointer[structure]
}

// structure is an index's access method, a T-Tree or a linear hash table,
// opened over one pager. Delete reports an absent entry as its package's
// ErrNotFound.
type structure interface {
	Insert(entry uint64) error
	Delete(entry uint64) error
	// probe appends to out the entries that may hold keys in [lo, hi]
	// (a hash table: keys equal to lo).
	probe(lo, hi any, out []uint64) ([]uint64, error)
	// walk visits every entry.
	walk(fn func(entry uint64) bool) error
	Check() error
}

type tree struct{ *ttree.Tree }

func (t tree) probe(lo, hi any, out []uint64) ([]uint64, error) {
	err := t.Range(lo, hi, func(e uint64) bool { out = append(out, e); return true })
	return out, err
}

func (t tree) walk(fn func(uint64) bool) error { return t.Range(nil, nil, fn) }

type table struct {
	*linhash.Table
	idx *Index
}

func (t table) probe(key, _ any, out []uint64) ([]uint64, error) {
	kh, err := t.idx.hashKey(key)
	if err == nil {
		err = t.Lookup(key, kh, func(e uint64) bool { out = append(out, e); return true })
	}
	return out, err
}

func (t table) walk(fn func(uint64) bool) error { return t.Scan(fn) }

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

// create builds the index's empty structure through p and returns its
// header address.
func (i *Index) create(p ttree.Pager) (hdr addr.EntityAddr, err error) {
	if i.kind == KindTTree {
		_, hdr, err = ttree.Create(p, i.order, nil, nil)
	} else {
		_, hdr, err = linhash.Create(p, i.order, nil, nil)
	}
	return hdr, err
}

// open opens the index's structure over p.
func (i *Index) open(p ttree.Pager) (structure, error) {
	switch i.kind {
	case KindTTree:
		t, err := ttree.Open(p, i.header, i.compareEntries, i.compareKey)
		return tree{t}, err
	case KindLinHash:
		t, err := linhash.Open(p, i.header, i.hashEntry, i.matchKey)
		return table{t, i}, err
	}
	return nil, fmt.Errorf("mmdb: unknown index kind %v", i.kind)
}

// read returns the structure opened over the store for reading.
func (i *Index) read() (structure, error) {
	if s := i.reader.Load(); s != nil {
		return *s, nil
	}
	s, err := i.open(txn.ReadPager{Store: i.rel.db.store})
	if err == nil {
		i.reader.Store(&s)
	}
	return s, err
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
	var da addr.EntityAddr
	err := db.inTxn(func(t *txn.Txn) (err error) {
		if err = t.LockRelation(catalog.RelIDRelationCatalog, lock.IX); err == nil {
			da, err = t.InsertEntity(addr.SegRelationCatalog, false, desc.Encode())
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	rel := &Relation{db: db, relID: relID, name: name, seg: seg, schema: append(heap.Schema(nil), schema...)}
	db.mu.Lock()
	db.rels[name] = rel
	db.relByID[relID] = rel
	db.objects[seg] = object{rel: rel, desc: da}
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

	err = db.inTxn(func(t *txn.Txn) error {
		// Lock out writers of the relation while the index is built.
		if err := t.LockRelation(rel.relID, lock.S); err != nil {
			return err
		}
		if err := t.LockRelation(catalog.RelIDIndexCatalog, lock.IX); err != nil {
			return err
		}
		da, err := t.InsertEntity(addr.SegIndexCatalog, false, desc.Encode())
		if err != nil {
			return err
		}
		// Register the object before building: partition allocations
		// during the build look up the descriptor address.
		db.mu.Lock()
		db.objects[seg] = object{rel: rel, desc: da, index: idx}
		db.mu.Unlock()
		rel.addIndex(idx)
		if idx.header, err = idx.create(txn.IndexPager{T: t, Seg: seg}); err != nil {
			return err
		}
		// Record the header address in the descriptor, which lists the
		// partitions the build has allocated so far.
		raw, err := t.ReadEntity(da)
		if err != nil {
			return err
		}
		cur, err := catalog.DecodeIndex(raw)
		if err != nil {
			return err
		}
		cur.Header = idx.header
		if err := t.UpdateEntity(da, false, cur.Encode()); err != nil {
			return err
		}
		// Populate from existing tuples.
		return db.populateIndex(t, idx)
	})
	if err != nil {
		db.mu.Lock()
		delete(db.objects, seg)
		db.mu.Unlock()
		rel.removeIndex(idx)
		return nil, err
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
			if err := idx.change(pager, ea.Pack(), false); err != nil {
				return err
			}
		}
	}
	return nil
}

// change inserts entry into the index structure, or takes it out when
// remove is set (an absent entry is not an error then). The caller holds
// the index writer lock or the build lock; the latch is taken here.
func (idx *Index) change(pager txn.IndexPager, entry uint64, remove bool) error {
	idx.latch.Lock()
	defer idx.latch.Unlock()
	s, err := idx.open(pager)
	if err != nil {
		return err
	}
	if !remove {
		return s.Insert(entry)
	}
	if err := s.Delete(entry); !errors.Is(err, ttree.ErrNotFound) && !errors.Is(err, linhash.ErrNotFound) {
		return err
	}
	return nil
}
