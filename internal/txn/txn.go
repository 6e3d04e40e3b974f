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

// RedoSink receives REDO log records; the recovery component's Stable
// Log Buffer implements it.
type RedoSink interface {
	// BeginTxn opens a log record chain for the transaction.
	BeginTxn(id uint64)
	// WriteRecord appends a REDO record to its transaction's chain.
	WriteRecord(rec *wal.Record) error
	// CommitTxn atomically moves the chain to the committed list; the
	// transaction is durable when this returns.
	CommitTxn(id uint64) error
	// AbortTxn discards the chain.
	AbortTxn(id uint64)
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
	m.sink.BeginTxn(id)
	m.Tracer.Emit(trace.Event{Kind: trace.KindTxnBegin, Txn: id})
	return &Txn{m: m, id: id, start: time.Now()}
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
	start      time.Time
	undo       []undoEntry       // the volatile UNDO space
	pendingDel []addr.EntityAddr // deferred deletes, in delete (log) order
	newParts   []*mm.Partition   // privately owned until commit
	nRecords   int
	done       bool
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// Records returns the number of REDO records written so far.
func (t *Txn) Records() int { return t.nRecords }

func (t *Txn) check() error {
	if t.done {
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
	rec := &wal.Record{Tag: tag, Txn: t.id, PID: pid, Slot: slot, Off: off, Data: data}
	if err := t.m.sink.WriteRecord(rec); err != nil {
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
	if err := t.check(); err != nil {
		return nil, nil, err
	}
	if t.PendingDelete(a) {
		return nil, nil, fmt.Errorf("%w: %v (deleted in this transaction)", ErrNotFound, a)
	}
	data, held, err := t.m.store.Lend(a)
	if errors.Is(err, mm.ErrBadSlot) {
		err = fmt.Errorf("%w: %v", ErrNotFound, a)
	}
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

// UpdateEntity replaces the entity's bytes.
func (t *Txn) UpdateEntity(a addr.EntityAddr, isIdx bool, data []byte) error {
	if err := t.check(); err != nil {
		return err
	}
	if t.PendingDelete(a) {
		return fmt.Errorf("%w: %v (deleted in this transaction)", ErrNotFound, a)
	}
	tag := wal.TagRelUpdate
	if isIdx {
		tag = wal.TagIdxUpdate
	}
	p, err := t.m.store.Partition(a.Partition())
	if err != nil {
		return err
	}
	p.Latch()
	old, err := p.Read(a.Slot)
	if err != nil {
		p.Unlatch()
		if errors.Is(err, mm.ErrBadSlot) {
			return fmt.Errorf("%w: %v", ErrNotFound, a)
		}
		return err
	}
	oldCopy := append([]byte(nil), old...)
	err = p.Update(a.Slot, data)
	p.Unlatch()
	if err != nil {
		return err
	}
	t.undo = append(t.undo, undoEntry{kind: undoUpdate, a: a, old: oldCopy})
	return t.emit(tag, a.Partition(), a.Slot, 0, data)
}

// WriteEntityAt overwrites bytes within the entity: the small in-place
// field update that produces the paper's typical 8–24 byte records.
func (t *Txn) WriteEntityAt(a addr.EntityAddr, isIdx bool, off int, data []byte) error {
	if err := t.check(); err != nil {
		return err
	}
	if t.PendingDelete(a) {
		return fmt.Errorf("%w: %v (deleted in this transaction)", ErrNotFound, a)
	}
	tag := wal.TagRelWrite
	if isIdx {
		tag = wal.TagIdxWrite
	}
	p, err := t.m.store.Partition(a.Partition())
	if err != nil {
		return err
	}
	p.Latch()
	cur, err := p.Read(a.Slot)
	if err != nil {
		p.Unlatch()
		if errors.Is(err, mm.ErrBadSlot) {
			return fmt.Errorf("%w: %v", ErrNotFound, a)
		}
		return err
	}
	if off < 0 || off+len(data) > len(cur) || off > math.MaxUint16 {
		p.Unlatch()
		return fmt.Errorf("txn: WriteEntityAt [%d,%d) outside entity of %d bytes or past a record's 16-bit offset", off, off+len(data), len(cur))
	}
	oldCopy := append([]byte(nil), cur[off:off+len(data)]...)
	err = p.WriteAt(a.Slot, off, data)
	p.Unlatch()
	if err != nil {
		return err
	}
	t.undo = append(t.undo, undoEntry{kind: undoWriteAt, a: a, off: off, old: oldCopy})
	return t.emit(tag, a.Partition(), a.Slot, uint16(off), data)
}

// DeleteEntity removes a relation tuple. The physical delete is
// deferred to commit so that the slot cannot be reused while this
// transaction might still abort; the REDO record is emitted now to
// keep replay order equal to operation order.
func (t *Txn) DeleteEntity(a addr.EntityAddr) error {
	if err := t.check(); err != nil {
		return err
	}
	if t.PendingDelete(a) {
		return fmt.Errorf("%w: %v (already deleted)", ErrNotFound, a)
	}
	// Verify existence so a bogus delete fails now, not at commit.
	p, err := t.m.store.Partition(a.Partition())
	if err != nil {
		return err
	}
	p.Latch()
	_, err = p.Read(a.Slot)
	p.Unlatch()
	if err != nil {
		if errors.Is(err, mm.ErrBadSlot) {
			return fmt.Errorf("%w: %v", ErrNotFound, a)
		}
		return err
	}
	t.pendingDel = append(t.pendingDel, a)
	return t.emit(wal.TagRelDelete, a.Partition(), a.Slot, 0, nil)
}

// DeleteIndexEntity physically removes an index component now. Safe
// because the per-index writer lock keeps other transactions away from
// this index until commit, so the freed slot cannot be reused under an
// uncommitted delete.
func (t *Txn) DeleteIndexEntity(a addr.EntityAddr) error {
	if err := t.check(); err != nil {
		return err
	}
	p, err := t.m.store.Partition(a.Partition())
	if err != nil {
		return err
	}
	p.Latch()
	old, err := p.Read(a.Slot)
	if err != nil {
		p.Unlatch()
		if errors.Is(err, mm.ErrBadSlot) {
			return fmt.Errorf("%w: %v", ErrNotFound, a)
		}
		return err
	}
	oldCopy := append([]byte(nil), old...)
	err = p.Delete(a.Slot)
	p.Unlatch()
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

// Commit applies deferred deletes in log order, makes the transaction
// durable in stable memory (instant commit), and releases all locks.
// The free-slot chain is LIFO, so applying the deletes in the order
// their REDO records were written leaves it as replay does: the slots
// handed out next are the same live and after a restart.
func (t *Txn) Commit() error {
	if err := t.check(); err != nil {
		return err
	}
	for _, a := range t.pendingDel {
		p, err := t.m.store.Partition(a.Partition())
		if err != nil {
			return fmt.Errorf("txn %d commit: %w", t.id, err)
		}
		p.Latch()
		err = p.Delete(a.Slot)
		p.Unlatch()
		if err != nil {
			return fmt.Errorf("txn %d commit: deferred delete of %v: %w", t.id, a, err)
		}
	}
	if err := t.m.sink.CommitTxn(t.id); err != nil {
		return err
	}
	for _, p := range t.newParts {
		p.SetOwner(0)
	}
	t.done = true
	t.m.locks.ReleaseAll(t.id)
	t.m.CommitLatency.ObserveSince(t.start)
	t.m.Tracer.Emit(trace.Event{Kind: trace.KindTxnCommit, Txn: t.id, Arg: uint64(t.nRecords)})
	return nil
}

// Abort rolls back every effect of the transaction by applying the
// volatile UNDO records in reverse, discards its REDO chain, and
// releases all locks. Deferred deletes touched nothing; they are
// forgotten.
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
	t.m.sink.AbortTxn(t.id)
	t.done = true
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
