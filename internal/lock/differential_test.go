package lock

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// The differential test drives Manager and the full-rebuild reference
// (reference_test.go) with the same random multi-transaction schedule
// and demands identical grants, queue order and deadlock victims after
// every step. Blocking calls run on their own goroutine; the driver
// waits until the call has either returned or is visibly queued before
// taking the next step, so both managers see one operation at a time.

// locker is what the driver needs from either implementation.
type locker interface {
	Lock(txn uint64, name Name, mode Mode) error
	ReleaseAll(txn uint64)
	// snapshot renders grants (sorted) and queues (in order) per name,
	// plus the set of queued transactions.
	snapshot() (string, map[uint64]bool)
}

func renderHead(name Name, grants []grant, queue []string) string {
	sort.Slice(grants, func(i, j int) bool { return grants[i].txn < grants[j].txn })
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d:", name.Kind, name.ID)
	for _, g := range grants {
		fmt.Fprintf(&b, " %d=%v", g.txn, g.mode)
	}
	b.WriteString(" |")
	for _, q := range queue {
		b.WriteString(" " + q)
	}
	return b.String()
}

func (m *Manager) snapshot() (string, map[uint64]bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var lines []string
	queued := map[uint64]bool{}
	for name, h := range m.locks {
		if len(h.granted) == 0 && len(h.queue) == 0 {
			continue // idle relation or latch head, kept for reuse
		}
		var q []string
		for _, r := range h.queue {
			q = append(q, fmt.Sprintf("%d>%v/%v", r.txn, r.mode, r.conv))
			queued[r.txn] = true
		}
		lines = append(lines, renderHead(name, append([]grant(nil), h.granted...), q))
	}
	if len(queued) != len(m.waiting) {
		lines = append(lines, fmt.Sprintf("waiting index has %d entries for %d queued requests", len(m.waiting), len(queued)))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n"), queued
}

func (m *refManager) snapshot() (string, map[uint64]bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var lines []string
	queued := map[uint64]bool{}
	for name, h := range m.locks {
		var g []grant
		for t, md := range h.granted {
			g = append(g, grant{t, md})
		}
		var q []string
		for _, r := range h.queue {
			q = append(q, fmt.Sprintf("%d>%v/%v", r.txn, r.mode, r.conv))
			queued[r.txn] = true
		}
		lines = append(lines, renderHead(name, g, q))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n"), queued
}

// side is one implementation under the driver, with the result channels
// of its blocked calls.
type side struct {
	l       locker
	pending map[uint64]chan error
}

// lock issues the call and reports (err, false) if it returned, or
// (nil, true) once the request is queued.
func (s *side) lock(txn uint64, name Name, mode Mode) (error, bool) {
	ch := make(chan error, 1)
	go func() { ch <- s.l.Lock(txn, name, mode) }()
	for {
		select {
		case err := <-ch:
			return err, false
		default:
		}
		if _, queued := s.l.snapshot(); queued[txn] {
			// Queued and deadlock-checked under one critical section;
			// it may already have been chosen as victim, which the
			// settle pass picks up.
			s.pending[txn] = ch
			return nil, true
		}
		runtime.Gosched()
	}
}

// settle collects the outcome of every blocked call whose request has
// left its queue.
func (s *side) settle() map[uint64]string {
	out := map[uint64]string{}
	_, queued := s.l.snapshot()
	for txn, ch := range s.pending {
		if !queued[txn] {
			out[txn] = outcome(<-ch)
			delete(s.pending, txn)
		}
	}
	return out
}

func outcome(err error) string {
	switch {
	case err == nil:
		return "granted"
	case errors.Is(err, ErrDeadlock):
		return "deadlock"
	case errors.Is(err, ErrAborted):
		return "aborted"
	default:
		return err.Error()
	}
}

func TestDifferentialAgainstFullRebuild(t *testing.T) {
	names := []Name{Relation(1), Relation(2), Entity(1), Entity(2), Entity(3), Latch(1)}
	modes := []Mode{IS, IX, S, SIX, X}
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := &side{l: NewManager(), pending: map[uint64]chan error{}}
		b := &side{l: newRefManager(), pending: map[uint64]chan error{}}
		// Live transactions: running ones may lock; waiting ones are
		// blocked in Lock; failed ones were deadlock victims and may
		// only abort. Ids only grow, so "youngest" is well defined.
		const running, waiting, failed = 0, 1, 2
		state := map[uint64]int{}
		next := uint64(1)
		var deadlocks, aborts int
		for step := 0; step < steps; step++ {
			for len(state) < 5 {
				state[next] = running
				next++
			}
			ids := make([]uint64, 0, len(state))
			for id := range state {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			txn := ids[rng.Intn(len(ids))]
			if state[txn] == waiting && rng.Intn(4) > 0 {
				continue // abort a queued transaction only now and then
			}
			desc := ""
			if state[txn] == running && rng.Intn(10) < 8 {
				name, mode := names[rng.Intn(len(names))], modes[rng.Intn(len(modes))]
				desc = fmt.Sprintf("txn %d lock %v %v", txn, name, mode)
				errA, queuedA := a.lock(txn, name, mode)
				errB, queuedB := b.lock(txn, name, mode)
				if queuedA != queuedB || outcome(errA) != outcome(errB) {
					t.Fatalf("seed %d step %d (%s): new (%v, queued %v) vs reference (%v, queued %v)",
						seed, step, desc, errA, queuedA, errB, queuedB)
				}
				switch {
				case queuedA:
					state[txn] = waiting
				case errA != nil:
					state[txn] = failed
					deadlocks++ // the requester closed the cycle
				}
			} else {
				// Commit, abort of a victim, or abort while queued.
				desc = fmt.Sprintf("txn %d release (state %d)", txn, state[txn])
				if state[txn] == waiting {
					aborts++
				}
				a.l.ReleaseAll(txn)
				b.l.ReleaseAll(txn)
				if state[txn] != waiting {
					delete(state, txn)
				}
			}
			gotA, gotB := a.settle(), b.settle()
			if fmt.Sprint(gotA) != fmt.Sprint(gotB) {
				t.Fatalf("seed %d step %d (%s): woken calls differ: new %v, reference %v", seed, step, desc, gotA, gotB)
			}
			for id, o := range gotA {
				switch o {
				case "granted":
					state[id] = running
				case "deadlock":
					state[id] = failed
					deadlocks++
				case "aborted":
					delete(state, id)
				default:
					t.Fatalf("seed %d step %d: txn %d woke with %s", seed, step, id, o)
				}
			}
			snapA, _ := a.l.snapshot()
			snapB, _ := b.l.snapshot()
			if snapA != snapB {
				t.Fatalf("seed %d step %d (%s): lock tables differ\nnew:\n%s\nreference:\n%s", seed, step, desc, snapA, snapB)
			}
		}
		if deadlocks == 0 || aborts == 0 {
			t.Fatalf("seed %d: schedule exercised %d deadlocks and %d aborts while queued; want both", seed, deadlocks, aborts)
		}
		for id := range state {
			a.l.ReleaseAll(id)
			b.l.ReleaseAll(id)
		}
		a.settle()
		b.settle()
		if snapA, _ := a.l.snapshot(); snapA != "" {
			t.Fatalf("seed %d: locks left after every transaction released:\n%s", seed, snapA)
		}
	}
}
