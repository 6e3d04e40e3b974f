// Package lock implements the MM-DBMS concurrency control substrate:
// strict two-phase locking with relation-level intention modes and
// entity-level locks, as required by §2.3.2 ("to maintain
// serializability and to simplify UNDO processing for transactions,
// index components and relation tuples are locked with two-phase locks
// that are held until transaction commit") and §2.4 (a checkpoint
// transaction sets a single read lock on the partition's relation, which
// suffices to ensure a transaction-consistent state).
//
// Deadlocks are detected eagerly: a lock request that would close a
// cycle in the waits-for graph fails with ErrDeadlock, and the caller
// aborts the transaction. Detection costs what the waiters cost: it runs
// only while some request is queued and walks only the lock heads that
// have a queue, so an uncontended transaction pays for the locks it
// takes — a few map and slice operations, no allocation — whatever the
// size of the table (docs/ARCHITECTURE.md has the completeness argument).
package lock

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mmdb/internal/metrics"
	"mmdb/internal/trace"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes. Relations are locked in intention modes by readers and
// writers (IS/IX), in S by checkpoint transactions, and in X by schema
// operations; entities (tuples, index components) are locked in S or X.
const (
	None Mode = iota
	IS
	IX
	S
	SIX
	X
)

var modeNames = [...]string{None: "None", IS: "IS", IX: "IX", S: "S", SIX: "SIX", X: "X"}

func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// compatible reports whether two modes may be held simultaneously by
// different transactions.
var compatible = [6][6]bool{
	IS:  {IS: true, IX: true, S: true, SIX: true},
	IX:  {IS: true, IX: true},
	S:   {IS: true, S: true},
	SIX: {IS: true},
	X:   {},
}

// supremum[a][b] is the weakest mode at least as strong as both.
var supremum = [6][6]Mode{
	None: {None: None, IS: IS, IX: IX, S: S, SIX: SIX, X: X},
	IS:   {None: IS, IS: IS, IX: IX, S: S, SIX: SIX, X: X},
	IX:   {None: IX, IS: IX, IX: IX, S: SIX, SIX: SIX, X: X},
	S:    {None: S, IS: S, IX: SIX, S: S, SIX: SIX, X: X},
	SIX:  {None: SIX, IS: SIX, IX: SIX, S: SIX, SIX: SIX, X: X},
	X:    {None: X, IS: X, IX: X, S: X, SIX: X, X: X},
}

// Errors returned by Lock.
var (
	// ErrDeadlock reports that granting the request would deadlock;
	// the requesting transaction must abort.
	ErrDeadlock = errors.New("lock: deadlock detected")
	// ErrAborted reports that the waiter was cancelled by CancelWaits.
	ErrAborted = errors.New("lock: wait cancelled")
)

// Kind distinguishes the lock name spaces.
type Kind uint8

// Lock name kinds.
const (
	KindRelation Kind = iota + 1
	KindEntity
	KindLatch // short-term system resources, e.g. the disk allocation map
)

// Name identifies a lockable resource.
type Name struct {
	Kind Kind
	ID   uint64
}

// Relation names the relation-level lock for a relation identifier.
func Relation(relID uint64) Name { return Name{Kind: KindRelation, ID: relID} }

// Entity names the entity-level lock for a packed entity address.
func Entity(packed uint64) Name { return Name{Kind: KindEntity, ID: packed} }

// Latch names a short-term system lock.
func Latch(id uint64) Name { return Name{Kind: KindLatch, ID: id} }

// request is one blocked Lock call. A transaction is a single thread of
// control (txn.Txn is not safe for concurrent use), so it has at most
// one request pending at a time; Manager.waiting relies on that.
type request struct {
	txn  uint64
	mode Mode // the target (post-conversion) mode
	conv bool // conversion of an existing grant
	head *head
	done bool
	err  error
	cond *sync.Cond
}

type grant struct {
	txn  uint64
	mode Mode
}

// head is the state of one lock name. Almost every lock has one or two
// holders, so the granted set is a slice searched linearly, backed by
// storage inside the head itself until it outgrows it.
type head struct {
	name    Name
	granted []grant
	queue   []*request // pending requests: conversions first, then FIFO
	inline  [2]grant
}

// holder returns the index of txn's grant, or -1.
func (h *head) holder(txn uint64) int {
	for i := range h.granted {
		if h.granted[i].txn == txn {
			return i
		}
	}
	return -1
}

// blocked reports whether a request cannot be granted given its queue
// position i: incompatible holders always block (even if the holder
// also has a conversion queued — its grant stands until it releases),
// and for fresh requests every pending request queued ahead blocks too,
// preserving FIFO fairness. Conversions consider only holders, so they
// jump the queue and cannot starve.
func (h *head) blocked(i int, txn uint64, mode Mode, conv bool) bool {
	for _, g := range h.granted {
		if g.txn != txn && !compatible[mode][g.mode] {
			return true
		}
	}
	if !conv {
		for _, w := range h.queue[:i] {
			if w.txn != txn {
				return true
			}
		}
	}
	return false
}

// txnLocks is the set of lock heads a transaction holds a grant on, in
// acquisition order.
type txnLocks struct {
	heads []*head
}

// Free-list bounds: a transaction that took thousands of locks (an
// audit, a load batch) must not pin that much memory once it is gone.
const (
	maxFree     = 256 // entries kept on each free list
	maxKeptHeld = 64  // largest txnLocks.heads capacity worth recycling
)

// Manager is the lock table.
type Manager struct {
	mu    sync.Mutex
	locks map[Name]*head
	held  map[uint64]*txnLocks
	// waiting maps a transaction to its pending request. It is empty
	// exactly when no request is queued anywhere, which is the common
	// case and the one in which deadlock detection has nothing to do.
	waiting map[uint64]*request

	freeHeads []*head
	freeTxns  []*txnLocks

	// Deadlock detection scratch, rebuilt by rebuildWaitsFor: waitsFor[t]
	// is the range of edges holding the transactions t waits on.
	waitsFor map[uint64]edgeSpan
	edges    []uint64
	seen     map[uint64]bool
	stack    []uint64
	// headsWalked counts lock heads examined by deadlock detection, so
	// tests can assert that an uncontended transaction examines none.
	headsWalked int

	// WaitLatency observes the blocked portion of Lock calls (only
	// requests that actually queue). DeadlockCount counts waits-for
	// cycles resolved by victim cancellation. Both are optional wiring
	// (nil-safe) set once before the manager is shared.
	WaitLatency   *metrics.Histogram
	DeadlockCount *metrics.Counter

	// Tracer records block/grant/deadlock events (nil-safe), also set
	// once before the manager is shared.
	Tracer *trace.Tracer
}

type edgeSpan struct{ lo, hi int }

// NewManager creates an empty lock table.
func NewManager() *Manager {
	return &Manager{
		locks:    make(map[Name]*head),
		held:     make(map[uint64]*txnLocks),
		waiting:  make(map[uint64]*request),
		waitsFor: make(map[uint64]edgeSpan),
		seen:     make(map[uint64]bool),
	}
}

func (m *Manager) newHead(name Name) *head {
	var h *head
	if n := len(m.freeHeads); n > 0 {
		h = m.freeHeads[n-1]
		m.freeHeads = m.freeHeads[:n-1]
	} else {
		h = &head{}
		h.granted = h.inline[:0]
	}
	h.name = name
	m.locks[name] = h
	return h
}

// dropHead removes an idle head from the table.
func (m *Manager) dropHead(h *head) {
	delete(m.locks, h.name)
	if len(m.freeHeads) < maxFree {
		h.granted = h.inline[:0]
		m.freeHeads = append(m.freeHeads, h)
	}
}

// Held returns the mode txn holds on name (None if unheld).
func (m *Manager) Held(txn uint64, name Name) Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.locks[name]; h != nil {
		if i := h.holder(txn); i >= 0 {
			return h.granted[i].mode
		}
	}
	return None
}

// rebuildWaitsFor derives the waits-for graph from the queues: every
// pending request waits on its incompatible holders and, for fresh
// requests, on the pending requests queued ahead of it. Deriving the
// graph fresh (rather than maintaining it incrementally) is essential:
// conversion grants bypass the queue and silently change queued
// waiters' blocker sets, so incrementally maintained edges go stale.
// Only heads with a queue contribute edges, and those are reached from
// the waiting requests, so the cost is in the number of waiters and not
// in the size of the lock table. Caller holds m.mu.
func (m *Manager) rebuildWaitsFor() {
	clear(m.waitsFor)
	m.edges = m.edges[:0]
	for _, first := range m.waiting {
		h := first.head
		if h.queue[0] != first {
			continue // h is walked once, from the request at its front
		}
		m.headsWalked++
		for i, req := range h.queue {
			lo := len(m.edges)
			for _, g := range h.granted {
				if g.txn != req.txn && !compatible[req.mode][g.mode] {
					m.edges = append(m.edges, g.txn)
				}
			}
			if !req.conv {
				for _, w := range h.queue[:i] {
					if w.txn != req.txn {
						m.edges = append(m.edges, w.txn)
					}
				}
			}
			if len(m.edges) > lo {
				m.waitsFor[req.txn] = edgeSpan{lo, len(m.edges)}
			}
		}
	}
}

// onCycle reports whether start can reach itself in the waits-for graph.
func (m *Manager) onCycle(start uint64) bool {
	clear(m.seen)
	m.stack = append(m.stack[:0], start)
	for len(m.stack) > 0 {
		t := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		span := m.waitsFor[t]
		for _, next := range m.edges[span.lo:span.hi] {
			if next == start {
				return true
			}
			if !m.seen[next] {
				m.seen[next] = true
				m.stack = append(m.stack, next)
			}
		}
	}
	return false
}

// findCycleMember returns a transaction on some waits-for cycle, or
// (0, false). If prefer is itself on a cycle it is returned, so that a
// requester that just created a deadlock becomes the victim.
func (m *Manager) findCycleMember(prefer uint64) (uint64, bool) {
	if _, waiting := m.waitsFor[prefer]; waiting && m.onCycle(prefer) {
		return prefer, true
	}
	// Deterministic victim choice: the largest (youngest) transaction
	// id among cycle members.
	var victim uint64
	found := false
	for t := range m.waitsFor {
		if (!found || t > victim) && m.onCycle(t) {
			victim = t
			found = true
		}
	}
	return victim, found
}

// resolveDeadlocks cancels victims until the waits-for graph is
// acyclic. With no request queued the graph has no edges, so there is
// nothing to rebuild or search. Caller holds m.mu.
func (m *Manager) resolveDeadlocks(prefer uint64) {
	for len(m.waiting) > 0 {
		m.rebuildWaitsFor()
		victim, found := m.findCycleMember(prefer)
		if !found {
			return
		}
		m.cancelWait(victim, fmt.Errorf("%w: txn %d chosen as victim", ErrDeadlock, victim))
		m.DeadlockCount.Inc()
		m.Tracer.Emit(trace.Event{Kind: trace.KindLockDeadlock, Txn: victim})
	}
}

// finish takes request i off h's queue and wakes its caller with err.
func (m *Manager) finish(h *head, i int, err error) {
	req := h.queue[i]
	copy(h.queue[i:], h.queue[i+1:])
	h.queue[len(h.queue)-1] = nil
	h.queue = h.queue[:len(h.queue)-1]
	delete(m.waiting, req.txn)
	req.done = true
	req.err = err
	req.cond.Signal()
}

// cancelWait removes txn's pending request (if any), failing it with
// err, and sweeps the affected lock. Caller holds m.mu.
func (m *Manager) cancelWait(txn uint64, err error) {
	req := m.waiting[txn]
	if req == nil {
		return
	}
	h := req.head
	for i, r := range h.queue {
		if r == req {
			m.finish(h, i, err)
			m.sweep(h)
			return
		}
	}
}

// Lock acquires name in at least the given mode for txn, blocking until
// granted. Re-requests and upgrades convert the held mode via the
// supremum lattice. Returns ErrDeadlock if the wait would deadlock (the
// requester is preferred as victim when it closes the cycle).
func (m *Manager) Lock(txn uint64, name Name, mode Mode) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	h := m.locks[name]
	if h == nil {
		h = m.newHead(name)
	}
	cur := None
	gi := h.holder(txn)
	if gi >= 0 {
		cur = h.granted[gi].mode
	}
	target := supremum[cur][mode]
	if target == cur && cur != None {
		return nil // already strong enough
	}
	conv := cur != None

	if !h.blocked(len(h.queue), txn, target, conv) {
		m.grant(h, gi, txn, target)
		if conv {
			// A conversion grant tightens queued waiters' blocker
			// sets behind their backs; check for cycles it created.
			m.resolveDeadlocks(0)
		}
		return nil
	}

	req := &request{txn: txn, mode: target, conv: conv, head: h, cond: sync.NewCond(&m.mu)}
	h.queue = append(h.queue, req)
	if conv {
		// Conversions wait at the head of the queue.
		copy(h.queue[1:], h.queue)
		h.queue[0] = req
	}
	m.waiting[txn] = req
	m.resolveDeadlocks(txn)

	m.Tracer.Emit(trace.Event{
		Kind: trace.KindLockBlock, Txn: txn,
		Arg: name.ID, Arg2: uint64(name.Kind),
	})
	waitStart := time.Now()
	for !req.done {
		req.cond.Wait()
	}
	m.WaitLatency.ObserveSince(waitStart)
	if req.err == nil {
		m.Tracer.Emit(trace.Event{
			Kind: trace.KindLockGrant, Txn: txn,
			Arg: name.ID, Arg2: uint64(name.Kind),
		})
	}
	return req.err
}

// grant records the lock as held; gi is txn's index in h.granted, or -1
// for a fresh grant. Caller holds m.mu.
func (m *Manager) grant(h *head, gi int, txn uint64, mode Mode) {
	if gi >= 0 {
		h.granted[gi].mode = mode
		return
	}
	h.granted = append(h.granted, grant{txn, mode})
	tl := m.held[txn]
	if tl == nil {
		if n := len(m.freeTxns); n > 0 {
			tl = m.freeTxns[n-1]
			m.freeTxns = m.freeTxns[:n-1]
		} else {
			tl = &txnLocks{}
		}
		m.held[txn] = tl
	}
	tl.heads = append(tl.heads, h)
}

// sweep re-examines the queue of h after a release, granting every
// request that has become compatible, in FIFO order (conversions
// first), and drops an entity's head once nothing holds or awaits it.
// Caller holds m.mu and must not use h afterwards.
func (m *Manager) sweep(h *head) {
	for changed := true; changed; {
		changed = false
		for i, req := range h.queue {
			if h.blocked(i, req.txn, req.mode, req.conv) {
				if !req.conv {
					break // FIFO: later fresh requests must wait
				}
				continue
			}
			m.grant(h, h.holder(req.txn), req.txn, req.mode)
			m.finish(h, i, nil)
			changed = true
			break
		}
	}
	// An idle relation or latch head stays in the table: those names are
	// few (one per relation or index) and the next transaction wants the
	// same ones, so dropping them only to re-create them is the bulk of
	// an uncontended transaction's map traffic. Entity names are
	// unbounded and go.
	if len(h.granted) == 0 && len(h.queue) == 0 && h.name.Kind == KindEntity {
		m.dropHead(h)
	}
}

// ReleaseAll drops every lock held by txn (commit or abort) and cancels
// any wait it has pending.
func (m *Manager) ReleaseAll(txn uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if tl := m.held[txn]; tl != nil {
		for i, h := range tl.heads {
			gi := h.holder(txn)
			last := len(h.granted) - 1
			h.granted[gi] = h.granted[last]
			h.granted = h.granted[:last]
			m.sweep(h)
			tl.heads[i] = nil
		}
		delete(m.held, txn)
		if len(m.freeTxns) < maxFree && cap(tl.heads) <= maxKeptHeld {
			tl.heads = tl.heads[:0]
			m.freeTxns = append(m.freeTxns, tl)
		}
	}
	if len(m.waiting) == 0 {
		return
	}
	// Cancel a pending wait, if any (abort while queued).
	m.cancelWait(txn, ErrAborted)
	// Sweeps may have granted queued conversions, which tighten other
	// waiters' blocker sets; resolve any cycle that formed.
	m.resolveDeadlocks(0)
}

// HasWaiters reports whether any transaction is currently blocked in a
// lock queue; used by tests that need to observe contention.
func (m *Manager) HasWaiters() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiting) > 0
}

// HeldLocks returns a copy of txn's held locks; used by tests and the
// transaction manager's invariant checks.
func (m *Manager) HeldLocks(txn uint64) map[Name]Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[Name]Mode)
	if tl := m.held[txn]; tl != nil {
		for _, h := range tl.heads {
			out[h.name] = h.granted[h.holder(txn)].mode
		}
	}
	return out
}
