// Package txn implements the transaction manager of the main CPU: strict
// two-phase locked transactions whose REDO log records go to the Stable
// Log Buffer (so commit is instantaneous, with no log I/O
// synchronisation — §2.3.1) and whose UNDO log records go to a volatile
// UNDO space, because UNDO information is not needed after a
// transaction commits: the memory-resident database system never writes
// modified, uncommitted data to the stable disk database (§2.3.1).
//
// UNDO records are physical inverses. This is sound because every
// entity a transaction modifies is protected until commit: tuples by
// entity X locks, index nodes by the per-index writer lock, and freshly
// allocated partitions by transaction ownership.
package txn

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mmdb/internal/addr"
	"mmdb/internal/lock"
	"mmdb/internal/metrics"
	"mmdb/internal/mm"
	"mmdb/internal/trace"
	"mmdb/internal/wal"
)

// RedoSink opens REDO log record chains; the recovery component's
// Stable Log Buffer implements it.
type RedoSink interface {
	// BeginTxn opens a log record chain for the transaction.
	BeginTxn(id uint64) RedoChain
}

// RedoChain is one transaction's REDO log record chain. Only its
// transaction writes it, so appending a record needs no latch (§2.3.1).
type RedoChain interface {
	// WriteRecord appends a REDO record to the chain. The record is the
	// caller's again when it returns: a chain copies what it keeps.
	WriteRecord(rec *wal.Record) error
	// Commit atomically moves the chain to the committed list; the
	// transaction is durable when it returns. It is the commit point.
	// The caller must not use the chain again, whatever it returns.
	Commit() error
	// Abort discards the chain.
	Abort()
}

// Errors returned by transaction operations.
var (
	ErrTxnDone  = errors.New("txn: transaction already committed or aborted")
	ErrNotFound = errors.New("txn: entity not found")
)

// Manager creates and tracks transactions.
type Manager struct {
	store *mm.Store
	locks *lock.Manager
	sink  RedoSink
	next  atomic.Uint64

	// undoSpaces holds the UNDO spaces of finished transactions for
	// the next ones to write into (Txn.releaseUndo).
	undoSpaces sync.Pool

	// OnPartAlloc, if set, is invoked inside the allocating
	// transaction whenever a new partition comes into existence, so
	// the facade can record it in the catalogs.
	OnPartAlloc func(t *Txn, pid addr.PartitionID) error

	// CommitLatency, if set (before the manager is shared), observes
	// the begin-to-commit wall time of every committed transaction.
	// Nil-safe; left nil by unit tests that construct the manager
	// directly.
	CommitLatency *metrics.Histogram

	// Tracer, if set (before the manager is shared), records
	// begin/commit/abort events for every transaction. Nil-safe.
	Tracer *trace.Tracer
}

// NewManager creates a transaction manager over the given store, lock
// table, and REDO sink.
func NewManager(store *mm.Store, locks *lock.Manager, sink RedoSink) *Manager {
	return &Manager{store: store, locks: locks, sink: sink}
}

// NextID allocates a transaction identifier; the checkpoint component
// shares this ID space for its checkpoint transactions.
func (m *Manager) NextID() uint64 { return m.next.Add(1) }

// Store returns the volatile memory manager.
func (m *Manager) Store() *mm.Store { return m.store }

// Locks returns the lock table.
func (m *Manager) Locks() *lock.Manager { return m.locks }

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	id := m.NextID()
	t := &Txn{m: m, id: id, chain: m.sink.BeginTxn(id), start: time.Now()}
	m.Tracer.Emit(trace.Event{Kind: trace.KindTxnBegin, Txn: id})
	t.space, _ = m.undoSpaces.Get().(*undoSpace)
	if t.space == nil {
		t.space = new(undoSpace)
	}
	t.undo = t.undoBuf[:0]
	if cap(t.space.entries) > len(t.undoBuf) {
		t.undo = t.space.entries
	}
	return t
}

// undoSpace is the part of a transaction's volatile UNDO space
// (§2.3.1) that outlives it: the UNDO list that outgrew Txn.undoBuf,
// emptied, and the arena holding the old bytes the records restore. A
// finished transaction hands it to the next through
// Manager.undoSpaces, so a transaction that updates what the one
// before it did allocates no UNDO space.
type undoSpace struct {
	entries []undoEntry
	bytes   []byte
	kept    int // old bytes kept by the current transaction, all chunks
}

// minUndoChunk is the smallest arena chunk: a debit/credit keeps 32
// old bytes.
const minUndoChunk = 512

// keep copies old into the UNDO arena and returns the copy. When the
// arena is full a chunk twice its size replaces it; the records made
// so far keep the old chunk alive until the transaction ends.
func (t *Txn) keep(old []byte) []byte {
	s := t.space
	if cap(s.bytes)-len(s.bytes) < len(old) {
		s.bytes = make([]byte, 0, max(2*cap(s.bytes), len(old), minUndoChunk))
	}
	n := len(s.bytes)
	s.bytes = append(s.bytes, old...)
	s.kept += len(old)
	return s.bytes[n:len(s.bytes):len(s.bytes)]
}

// releaseUndo hands the finished transaction's UNDO space on. Nothing
// reads the records once the transaction has committed or applied
// them. A list or arena this transaction filled less than a quarter
// of is dropped instead, so what a large transaction grew does not stay
// live under small ones.
func (t *Txn) releaseUndo() {
	s := t.space
	t.space = nil
	if cap(t.undo) > len(t.undoBuf) {
		clear(t.undo)
		s.entries = t.undo[:0]
		if 4*len(t.undo) < cap(t.undo) {
			s.entries = nil
		}
	}
	t.undo = nil
	if cap(s.bytes) > minUndoChunk && 4*s.kept < cap(s.bytes) {
		s.bytes = nil
	}
	s.bytes, s.kept = s.bytes[:0], 0
	t.m.undoSpaces.Put(s)
}

// undo kinds
type undoKind uint8

const (
	undoInsert    undoKind = iota + 1 // physical delete of a
	undoUpdate                        // physical update back to old
	undoWriteAt                       // physical write-back of old bytes
	undoIdxDelete                     // physical re-insert of old at a
	undoPartAlloc                     // evict the new partition
)

type undoEntry struct {
	kind undoKind
	a    addr.EntityAddr
	pid  addr.PartitionID
	off  int
	old  []byte
}

// Txn is one transaction. A Txn is not safe for concurrent use by
// multiple goroutines; each transaction is a single thread of control,
// as in the paper's system.
type Txn struct {
	m          *Manager
	id         uint64
	chain      RedoChain // nil once Commit has been called
	start      time.Time
	undo       []undoEntry       // the volatile UNDO space
	pendingDel []addr.EntityAddr // deferred deletes, in delete (log) order
	newParts   []*mm.Partition   // privately owned until commit
	nRecords   int
	done       bool
	// rec is the record emit hands the chain, held here so that logging
	// a record allocates nothing: the chain copies what it keeps.
	rec wal.Record
	// space is the UNDO space this transaction writes into; nil once it
	// has finished.
	space *undoSpace
	// undoBuf backs undo until it outgrows it: a debit/credit keeps
	// four UNDO records, so a typical transaction's UNDO space comes
	// with the Txn instead of growing record by record (§2.3.1).
	undoBuf [4]undoEntry
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// Records returns the number of REDO records written so far.
func (t *Txn) Records() int { return t.nRecords }

func (t *Txn) check() error {
	if t.done || t.chain == nil {
		return ErrTxnDone
	}
	return nil
}

// LockRelation acquires a relation-level lock.
func (t *Txn) LockRelation(relID uint64, mode lock.Mode) error {
	if err := t.check(); err != nil {
		return err
	}
	return t.m.locks.Lock(t.id, lock.Relation(relID), mode)
}

// LockEntity acquires an entity-level lock.
func (t *Txn) LockEntity(a addr.EntityAddr, mode lock.Mode) error {
	if err := t.check(); err != nil {
		return err
	}
	return t.m.locks.Lock(t.id, lock.Entity(a.Pack()), mode)
}

// LockIndex acquires the per-index writer lock (held to commit; it
// serialises structure modifications of one index so that node-level
// REDO records interleave in commit order).
func (t *Txn) LockIndex(idxID uint64, mode lock.Mode) error {
	if err := t.check(); err != nil {
		return err
	}
	return t.m.locks.Lock(t.id, lock.Name{Kind: lock.KindLatch, ID: 1<<40 | idxID}, mode)
}

func (t *Txn) emit(tag wal.Tag, pid addr.PartitionID, slot addr.Slot, off uint16, data []byte) error {
	t.rec = wal.Record{Tag: tag, Txn: t.id, PID: pid, Slot: slot, Off: off, Data: data}
	err := t.chain.WriteRecord(&t.rec)
	t.rec.Data = nil
	if err != nil {
		return err
	}
	t.nRecords++
	return nil
}

// allocPartition creates a new partition in seg, owned by t until
// commit, with a PartAlloc REDO record. An abort evicts the partition
// and leaves the owner mark on the dead object, so a concurrent insert
// still scanning an older partition list cannot place a row in it.
func (t *Txn) allocPartition(seg addr.SegmentID) (*mm.Partition, error) {
	p, err := t.m.store.AllocPartition(seg)
	if err != nil {
		return nil, err
	}
	pid := p.ID()
	p.SetOwner(t.id)
	t.newParts = append(t.newParts, p)
	t.undo = append(t.undo, undoEntry{kind: undoPartAlloc, pid: pid})
	if err := t.emit(wal.TagPartAlloc, pid, 0, 0, nil); err != nil {
		return nil, err
	}
	if t.m.OnPartAlloc != nil {
		if err := t.m.OnPartAlloc(t, pid); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// InsertEntity stores a new entity in the segment, choosing a partition
// with space (allocating one if necessary), and returns its address.
// isIdx selects index-component tags for the REDO record.
func (t *Txn) InsertEntity(seg addr.SegmentID, isIdx bool, data []byte) (addr.EntityAddr, error) {
	if err := t.check(); err != nil {
		return addr.Nil, err
	}
	tag := wal.TagRelInsert
	if isIdx {
		tag = wal.TagIdxInsert
	}
	// Placement is first fit over the resident partitions that are not
	// privately owned by another uncommitted transaction (mm.Store.Place).
	p, slot, err := t.m.store.Place(seg, t.id, data)
	if err != nil {
		return addr.Nil, err
	}
	if p == nil {
		if p, err = t.allocPartition(seg); err != nil {
			return addr.Nil, err
		}
		p.Latch()
		slot, err = p.Insert(data)
		p.Unlatch()
		if err != nil {
			return addr.Nil, err
		}
	}
	a := addr.EntityAddr{Segment: seg, Part: p.ID().Part, Slot: slot}
	t.undo = append(t.undo, undoEntry{kind: undoInsert, a: a})
	return a, t.emit(tag, p.ID(), slot, 0, data)
}

// LendEntity returns the entity's bytes where they lie, with its
// partition latched (mm.Partition.Lend states the borrower's duties),
// honouring the transaction's own deferred deletes. On error nothing is
// held.
func (t *Txn) LendEntity(a addr.EntityAddr) ([]byte, sync.Locker, error) {
	_, data, held, err := t.latch(a)
	return data, held, err
}

// ReadEntity returns a copy of the entity's bytes: LendEntity for callers
// that keep them.
func (t *Txn) ReadEntity(a addr.EntityAddr) ([]byte, error) {
	data, held, err := t.LendEntity(a)
	if err != nil {
		return nil, err
	}
	defer held.Unlock()
	return append([]byte(nil), data...), nil
}

// latch is the read and write paths' prologue: it checks the transaction
// and a's deferred delete, and returns a's partition, a's bytes and the
// partition's latch, held. On error nothing is held.
func (t *Txn) latch(a addr.EntityAddr) (*mm.Partition, []byte, sync.Locker, error) {
	if err := t.check(); err != nil {
		return nil, nil, nil, err
	}
	if t.PendingDelete(a) {
		return nil, nil, nil, fmt.Errorf("%w: %v (deleted in this transaction)", ErrNotFound, a)
	}
	p, err := t.m.store.Partition(a.Partition())
	if err != nil {
		return nil, nil, nil, err
	}
	cur, held, err := p.Lend(a.Slot)
	if errors.Is(err, mm.ErrBadSlot) {
		err = fmt.Errorf("%w: %v", ErrNotFound, a)
	}
	return p, cur, held, err
}

// UpdateEntity replaces the entity's bytes.
func (t *Txn) UpdateEntity(a addr.EntityAddr, isIdx bool, data []byte) error {
	tag := wal.TagRelUpdate
	if isIdx {
		tag = wal.TagIdxUpdate
	}
	p, old, held, err := t.latch(a)
	if err != nil {
		return err
	}
	oldCopy := t.keep(old)
	err = p.Update(a.Slot, data)
	held.Unlock()
	if err != nil {
		return err
	}
	t.undo = append(t.undo, undoEntry{kind: undoUpdate, a: a, old: oldCopy})
	return t.emit(tag, a.Partition(), a.Slot, 0, data)
}

// WriteEntityAt overwrites bytes within the entity: the small in-place
// field update that produces the paper's typical 8–24 byte records.
func (t *Txn) WriteEntityAt(a addr.EntityAddr, isIdx bool, off int, data []byte) error {
	tag := wal.TagRelWrite
	if isIdx {
		tag = wal.TagIdxWrite
	}
	p, cur, held, err := t.latch(a)
	if err != nil {
		return err
	}
	if off < 0 || off+len(data) > len(cur) || off > math.MaxUint16 {
		held.Unlock()
		return fmt.Errorf("txn: WriteEntityAt [%d,%d) outside entity of %d bytes or past a record's 16-bit offset", off, off+len(data), len(cur))
	}
	oldCopy := t.keep(cur[off : off+len(data)])
	err = p.WriteAt(a.Slot, off, data)
	held.Unlock()
	if err != nil {
		return err
	}
	t.undo = append(t.undo, undoEntry{kind: undoWriteAt, a: a, off: off, old: oldCopy})
	return t.emit(tag, a.Partition(), a.Slot, uint16(off), data)
}

// DeleteEntity removes a relation tuple. The physical delete is
// deferred to commit so that the slot cannot be reused while this
// transaction might still abort; the REDO record is emitted now to
// keep replay order equal to operation order. The entity is checked
// now, under the caller's X lock, so the delete cannot fail at commit.
func (t *Txn) DeleteEntity(a addr.EntityAddr) error {
	_, _, held, err := t.latch(a)
	if err != nil {
		return err
	}
	held.Unlock()
	t.pendingDel = append(t.pendingDel, a)
	return t.emit(wal.TagRelDelete, a.Partition(), a.Slot, 0, nil)
}

// DeleteIndexEntity physically removes an index component now. Safe
// because the per-index writer lock keeps other transactions away from
// this index until commit, so the freed slot cannot be reused under an
// uncommitted delete.
func (t *Txn) DeleteIndexEntity(a addr.EntityAddr) error {
	p, old, held, err := t.latch(a)
	if err != nil {
		return err
	}
	oldCopy := t.keep(old)
	err = p.Delete(a.Slot)
	held.Unlock()
	if err != nil {
		return err
	}
	t.undo = append(t.undo, undoEntry{kind: undoIdxDelete, a: a, old: oldCopy})
	return t.emit(wal.TagIdxDelete, a.Partition(), a.Slot, 0, nil)
}

// FreePartition logs a partition drop (TagPartFree). The physical
// removal — evicting the partition, dropping its bin, freeing its
// checkpoint track — is performed by the caller after commit; nothing
// physical happens inside the transaction, so abort needs no undo.
func (t *Txn) FreePartition(pid addr.PartitionID) error {
	if err := t.check(); err != nil {
		return err
	}
	return t.emit(wal.TagPartFree, pid, 0, 0, nil)
}

// Commit makes the transaction durable in stable memory (instant
// commit), then applies its deferred deletes and releases all locks.
// The chain's Commit is the commit point: if it fails, nothing was
// applied and the transaction is left for Abort. The deletes run in log
// order, because the free-slot chain is LIFO: the slots handed out next
// are then the same live and after a restart. DeleteEntity checked each
// entity under its X lock, so a delete that fails here is a broken
// invariant, not a half-committed transaction.
func (t *Txn) Commit() error {
	if err := t.check(); err != nil {
		return err
	}
	// The handle goes first: once the chain is listed, the sorter may
	// recycle it, and an Abort after a failed Commit must not touch it.
	c := t.chain
	t.chain = nil
	if err := c.Commit(); err != nil {
		return err
	}
	for _, a := range t.pendingDel {
		p, err := t.m.store.Partition(a.Partition())
		if err == nil {
			p.Latch()
			err = p.Delete(a.Slot)
			p.Unlatch()
		}
		if err != nil {
			panic(fmt.Sprintf("txn %d commit: deferred delete of %v: %v", t.id, a, err))
		}
	}
	for _, p := range t.newParts {
		p.SetOwner(0)
	}
	t.done = true
	t.releaseUndo()
	t.m.locks.ReleaseAll(t.id)
	t.m.CommitLatency.ObserveSince(t.start)
	t.m.Tracer.Emit(trace.Event{Kind: trace.KindTxnCommit, Txn: t.id, Arg: uint64(t.nRecords)})
	return nil
}

// Abort rolls back every effect of the transaction by applying the
// volatile UNDO records in reverse, discards its REDO chain (unless a
// failed Commit already gave it up), and releases all locks. Deferred
// deletes touched nothing; they are forgotten.
func (t *Txn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	var firstErr error
	for i := len(t.undo) - 1; i >= 0; i-- {
		if err := t.applyUndo(t.undo[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t.pendingDel = nil
	if t.chain != nil {
		t.chain.Abort()
		t.chain = nil
	}
	t.done = true
	t.releaseUndo()
	t.m.locks.ReleaseAll(t.id)
	t.m.Tracer.Emit(trace.Event{Kind: trace.KindTxnAbort, Txn: t.id, Arg: uint64(t.nRecords)})
	return firstErr
}

func (t *Txn) applyUndo(u undoEntry) error {
	if u.kind == undoPartAlloc {
		t.m.store.Evict(u.pid)
		return nil
	}
	p, err := t.m.store.Partition(u.a.Partition())
	if err != nil {
		return err
	}
	p.Latch()
	defer p.Unlatch()
	switch u.kind {
	case undoInsert:
		return p.Delete(u.a.Slot)
	case undoUpdate:
		return p.Update(u.a.Slot, u.old)
	case undoWriteAt:
		return p.WriteAt(u.a.Slot, u.off, u.old)
	case undoIdxDelete:
		return p.InsertAt(u.a.Slot, u.old)
	default:
		return fmt.Errorf("txn: unknown undo kind %d", u.kind)
	}
}

// PendingDelete reports whether the transaction has a deferred delete
// for the entity (used by scans for read-your-own-deletes).
func (t *Txn) PendingDelete(a addr.EntityAddr) bool { return slices.Contains(t.pendingDel, a) }

// IndexPager adapts a transaction to the Pager interface shared by the
// index structures, scoping inserts to one index segment.
type IndexPager struct {
	T   *Txn
	Seg addr.SegmentID
}

// Read implements Pager.
func (p IndexPager) Read(a addr.EntityAddr) ([]byte, error) { return p.T.ReadEntity(a) }

// Lend is the lending form of Read (ttree.Lender).
func (p IndexPager) Lend(a addr.EntityAddr) ([]byte, sync.Locker, error) { return p.T.LendEntity(a) }

// Insert implements Pager.
func (p IndexPager) Insert(data []byte) (addr.EntityAddr, error) {
	return p.T.InsertEntity(p.Seg, true, data)
}

// Update implements Pager.
func (p IndexPager) Update(a addr.EntityAddr, data []byte) error {
	return p.T.UpdateEntity(a, true, data)
}

// Delete implements Pager.
func (p IndexPager) Delete(a addr.EntityAddr) error { return p.T.DeleteIndexEntity(a) }

// ReadPager is a read-only pager over the store, used for index reads
// outside any transaction (e.g. by scans under the index latch) and by
// recovery-time index verification. Mutations return an error.
type ReadPager struct {
	Store *mm.Store
}

// Read implements Pager: Lend for callers that keep the bytes.
func (p ReadPager) Read(a addr.EntityAddr) ([]byte, error) {
	d, held, err := p.Store.Lend(a)
	if err != nil {
		return nil, err
	}
	defer held.Unlock()
	return append([]byte(nil), d...), nil
}

// Lend is the lending form of Read (ttree.Lender).
func (p ReadPager) Lend(a addr.EntityAddr) ([]byte, sync.Locker, error) { return p.Store.Lend(a) }

// Insert implements Pager; always fails.
func (p ReadPager) Insert([]byte) (addr.EntityAddr, error) {
	return addr.Nil, errors.New("txn: ReadPager is read-only")
}

// Update implements Pager; always fails.
func (p ReadPager) Update(addr.EntityAddr, []byte) error {
	return errors.New("txn: ReadPager is read-only")
}

// Delete implements Pager; always fails.
func (p ReadPager) Delete(addr.EntityAddr) error {
	return errors.New("txn: ReadPager is read-only")
}
