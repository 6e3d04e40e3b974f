package lock

import (
	"fmt"
	"sync"
)

// refManager is the lock manager as it was before deadlock detection
// became waiter-triggered: map-based grant sets, and a waits-for graph
// rebuilt from the whole lock table on every conversion grant and every
// ReleaseAll. It is kept, unchanged in behaviour, as the reference the
// differential test (differential_test.go) compares Manager against.
type refManager struct {
	mu    sync.Mutex
	locks map[Name]*refHead
	// waitsFor[t] = set of transactions t is waiting on.
	waitsFor map[uint64]map[uint64]bool
	held     map[uint64]map[Name]Mode // per-transaction held locks
}

type refRequest struct {
	txn  uint64
	mode Mode // for waiters: the target (post-conversion) mode
	conv bool // conversion of an existing grant
	done bool
	err  error
	cond *sync.Cond
}

type refHead struct {
	granted map[uint64]Mode
	queue   []*refRequest
}

// newRefManager creates an empty lock table.
func newRefManager() *refManager {
	return &refManager{
		locks:    make(map[Name]*refHead),
		waitsFor: make(map[uint64]map[uint64]bool),
		held:     make(map[uint64]map[Name]Mode),
	}
}

// Held returns the mode txn holds on name (None if unheld).
func (m *refManager) Held(txn uint64, name Name) Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.held[txn][name]
}

// blockersAt returns the transactions that prevent the request from
// being granted, given its queue position i: incompatible holders
// always block (even if the holder also has a conversion queued — its
// grant stands until it releases), and for fresh requests every
// pending request queued ahead blocks too, preserving FIFO fairness.
// Conversions consider only holders, so they jump the queue and cannot
// starve. Caller holds m.mu.
func (m *refManager) blockersAt(h *refHead, i int, txn uint64, mode Mode, conv bool) map[uint64]bool {
	out := make(map[uint64]bool)
	for t, gm := range h.granted {
		if t == txn {
			continue
		}
		if !compatible[mode][gm] {
			out[t] = true
		}
	}
	if !conv {
		if i > len(h.queue) {
			i = len(h.queue)
		}
		for j := 0; j < i; j++ {
			if w := h.queue[j]; w.txn != txn && !w.done {
				out[w.txn] = true
			}
		}
	}
	return out
}

// rebuildWaitsFor derives the waits-for graph from the current lock
// table state: every pending request waits on its incompatible holders
// and, for fresh requests, on the pending requests queued ahead of it.
// Deriving the graph fresh (rather than maintaining it incrementally)
// is essential: conversion grants bypass the queue and silently change
// queued waiters' blocker sets, so incrementally maintained edges go
// stale and cycles can form without any new lock request to observe
// them. Caller holds m.mu.
func (m *refManager) rebuildWaitsFor() {
	m.waitsFor = make(map[uint64]map[uint64]bool)
	for _, h := range m.locks {
		for i, req := range h.queue {
			if req.done {
				continue
			}
			blk := m.blockersAt(h, i, req.txn, req.mode, req.conv)
			if len(blk) == 0 {
				continue
			}
			edges := m.waitsFor[req.txn]
			if edges == nil {
				edges = make(map[uint64]bool)
				m.waitsFor[req.txn] = edges
			}
			for t := range blk {
				edges[t] = true
			}
		}
	}
}

// findCycleMember returns a transaction on some waits-for cycle, or
// (0, false). If prefer is itself on a cycle it is returned, so that a
// requester that just created a deadlock becomes the victim.
func (m *refManager) findCycleMember(prefer uint64) (uint64, bool) {
	onCycle := func(start uint64) bool {
		// DFS looking for a path from start back to start.
		seen := make(map[uint64]bool)
		var dfs func(t uint64) bool
		dfs = func(t uint64) bool {
			for next := range m.waitsFor[t] {
				if next == start {
					return true
				}
				if !seen[next] {
					seen[next] = true
					if dfs(next) {
						return true
					}
				}
			}
			return false
		}
		return dfs(start)
	}
	if _, waiting := m.waitsFor[prefer]; waiting && onCycle(prefer) {
		return prefer, true
	}
	// Deterministic victim choice: the largest (youngest) transaction
	// id among cycle members.
	var victim uint64
	found := false
	for t := range m.waitsFor {
		if onCycle(t) && (!found || t > victim) {
			victim = t
			found = true
		}
	}
	return victim, found
}

// resolveDeadlocks rebuilds the waits-for graph and cancels victims
// until it is acyclic. Caller holds m.mu.
func (m *refManager) resolveDeadlocks(prefer uint64) {
	for {
		m.rebuildWaitsFor()
		victim, found := m.findCycleMember(prefer)
		if !found {
			return
		}
		m.cancelWait(victim, fmt.Errorf("%w: txn %d chosen as victim", ErrDeadlock, victim))
	}
}

// cancelWait removes txn's pending request (if any), failing it with
// err, and sweeps the affected lock. Caller holds m.mu.
func (m *refManager) cancelWait(txn uint64, err error) {
	for name, h := range m.locks {
		for i, req := range h.queue {
			if req.txn == txn && !req.done {
				h.queue = append(h.queue[:i], h.queue[i+1:]...)
				req.done = true
				req.err = err
				req.cond.Signal()
				m.sweep(name, h)
				return
			}
		}
	}
}

// Lock acquires name in at least the given mode for txn, blocking until
// granted. Re-requests and upgrades convert the held mode via the
// supremum lattice. Returns ErrDeadlock if the wait would deadlock (the
// requester is preferred as victim when it closes the cycle).
func (m *refManager) Lock(txn uint64, name Name, mode Mode) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	h := m.locks[name]
	if h == nil {
		h = &refHead{granted: make(map[uint64]Mode)}
		m.locks[name] = h
	}
	cur := h.granted[txn]
	target := supremum[cur][mode]
	if target == cur && cur != None {
		return nil // already strong enough
	}
	conv := cur != None

	blk := m.blockersAt(h, len(h.queue), txn, target, conv)
	if len(blk) == 0 {
		m.grant(h, txn, name, target)
		if conv {
			// A conversion grant tightens queued waiters' blocker
			// sets behind their backs; check for cycles it created.
			m.resolveDeadlocks(0)
		}
		return nil
	}

	req := &refRequest{txn: txn, mode: target, conv: conv, cond: sync.NewCond(&m.mu)}
	if conv {
		// Conversions wait at the head of the queue.
		h.queue = append([]*refRequest{req}, h.queue...)
	} else {
		h.queue = append(h.queue, req)
	}
	m.resolveDeadlocks(txn)

	for !req.done {
		req.cond.Wait()
	}
	delete(m.waitsFor, txn)
	return req.err
}

// grant records the lock as held (caller holds m.mu).
func (m *refManager) grant(h *refHead, txn uint64, name Name, mode Mode) {
	h.granted[txn] = mode
	hm := m.held[txn]
	if hm == nil {
		hm = make(map[Name]Mode)
		m.held[txn] = hm
	}
	hm[name] = mode
}

// sweep re-examines the queue of h after a release, granting every
// request that has become compatible, in FIFO order (conversions
// first). Caller holds m.mu.
func (m *refManager) sweep(name Name, h *refHead) {
	changed := true
	for changed {
		changed = false
		for i, req := range h.queue {
			if req.done {
				continue
			}
			blk := m.blockersAt(h, i, req.txn, req.mode, req.conv)
			if len(blk) != 0 {
				if !req.conv {
					break // FIFO: later fresh requests must wait
				}
				continue
			}
			m.grant(h, req.txn, name, req.mode)
			h.queue = append(h.queue[:i], h.queue[i+1:]...)
			req.done = true
			req.cond.Signal()
			changed = true
			break
		}
	}
	if len(h.granted) == 0 && len(h.queue) == 0 {
		delete(m.locks, name)
	}
}

// ReleaseAll drops every lock held by txn (commit or abort) and cancels
// any wait it has pending.
func (m *refManager) ReleaseAll(txn uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name := range m.held[txn] {
		h := m.locks[name]
		if h == nil {
			continue
		}
		delete(h.granted, txn)
		m.sweep(name, h)
	}
	delete(m.held, txn)
	delete(m.waitsFor, txn)
	// Cancel a pending wait, if any (abort while queued).
	m.cancelWait(txn, ErrAborted)
	// Sweeps may have granted queued conversions, which tighten other
	// waiters' blocker sets; resolve any cycle that formed.
	m.resolveDeadlocks(0)
}
