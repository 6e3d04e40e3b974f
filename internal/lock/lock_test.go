package lock

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitQueued blocks until n requests wait in the lock table, so a Lock
// call started on another goroutine has queued before the test goes on.
func waitQueued(t *testing.T, m *Manager, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		m.mu.Lock()
		k := len(m.waiting)
		m.mu.Unlock()
		if k >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests queued", k, n)
		}
	}
}

func TestCompatibilityMatrix(t *testing.T) {
	// Spot-check the classic hierarchical locking matrix.
	cases := []struct {
		a, b Mode
		want bool
	}{
		{IS, IS, true}, {IS, IX, true}, {IS, S, true}, {IS, SIX, true}, {IS, X, false},
		{IX, IX, true}, {IX, S, false}, {IX, SIX, false}, {IX, X, false},
		{S, S, true}, {S, IX, false}, {S, X, false},
		{SIX, IS, true}, {SIX, S, false}, {SIX, SIX, false},
		{X, IS, false}, {X, X, false},
	}
	for _, c := range cases {
		if got := compatible[c.a][c.b]; got != c.want {
			t.Errorf("compatible[%v][%v] = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := compatible[c.b][c.a]; got != c.want {
			t.Errorf("matrix not symmetric at [%v][%v]", c.b, c.a)
		}
	}
}

func TestSupremumLattice(t *testing.T) {
	cases := []struct {
		a, b, want Mode
	}{
		{None, S, S}, {IS, IX, IX}, {S, IX, SIX}, {IX, S, SIX},
		{S, S, S}, {SIX, X, X}, {IS, S, S}, {X, IS, X},
	}
	for _, c := range cases {
		if got := supremum[c.a][c.b]; got != c.want {
			t.Errorf("supremum[%v][%v] = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestGrantCompatible(t *testing.T) {
	m := NewManager()
	r := Relation(1)
	if err := m.Lock(1, r, IS); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, r, IX); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(3, r, IS); err != nil {
		t.Fatal(err)
	}
	if got := m.Held(2, r); got != IX {
		t.Fatalf("Held = %v", got)
	}
}

func TestBlockAndRelease(t *testing.T) {
	m := NewManager()
	e := Entity(42)
	if err := m.Lock(1, e, X); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	var acquired atomic.Bool
	go func() {
		err := m.Lock(2, e, X)
		acquired.Store(true)
		got <- err
	}()
	waitQueued(t, m, 1)
	if acquired.Load() {
		t.Fatal("conflicting X granted while held")
	}
	m.ReleaseAll(1)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if m.Held(2, e) != X {
		t.Fatal("txn 2 not granted after release")
	}
}

func TestReentrantAndUpgrade(t *testing.T) {
	m := NewManager()
	r := Relation(9)
	if err := m.Lock(1, r, S); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, r, S); err != nil {
		t.Fatal(err) // re-request is a no-op
	}
	if err := m.Lock(1, r, IX); err != nil {
		t.Fatal(err) // S + IX = SIX upgrade with no contention
	}
	if got := m.Held(1, r); got != SIX {
		t.Fatalf("after upgrade Held = %v, want SIX", got)
	}
}

func TestUpgradeWaitsForReaders(t *testing.T) {
	m := NewManager()
	r := Relation(5)
	if err := m.Lock(1, r, S); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, r, S); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(1, r, X) }()
	select {
	case <-done:
		t.Fatal("upgrade granted while another reader holds S")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if m.Held(1, r) != X {
		t.Fatalf("Held = %v", m.Held(1, r))
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := NewManager()
	a, b := Entity(1), Entity(2)
	if err := m.Lock(1, a, X); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, b, X); err != nil {
		t.Fatal(err)
	}
	step := make(chan error, 1)
	go func() { step <- m.Lock(1, b, X) }() // 1 waits on 2
	waitQueued(t, m, 1)
	err := m.Lock(2, a, X) // would close the cycle
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("got %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2) // victim aborts
	if err := <-step; err != nil {
		t.Fatal(err)
	}
}

func TestConversionDeadlock(t *testing.T) {
	m := NewManager()
	r := Relation(3)
	if err := m.Lock(1, r, S); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, r, S); err != nil {
		t.Fatal(err)
	}
	step := make(chan error, 1)
	go func() { step <- m.Lock(1, r, X) }()
	waitQueued(t, m, 1)
	if err := m.Lock(2, r, X); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("got %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	if err := <-step; err != nil {
		t.Fatal(err)
	}
}

func TestCancelWaiter(t *testing.T) {
	m := NewManager()
	e := Entity(7)
	if err := m.Lock(1, e, X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(2, e, S) }()
	waitQueued(t, m, 1)
	m.ReleaseAll(2) // abort the waiter
	if err := <-done; !errors.Is(err, ErrAborted) {
		t.Fatalf("got %v, want ErrAborted", err)
	}
	// Holder unaffected.
	if m.Held(1, e) != X {
		t.Fatal("holder lost its lock")
	}
}

func TestFIFOFairness(t *testing.T) {
	m := NewManager()
	e := Entity(11)
	if err := m.Lock(1, e, X); err != nil {
		t.Fatal(err)
	}
	var order []uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := uint64(2); i <= 4; i++ {
		wg.Add(1)
		i := i
		go func() {
			defer wg.Done()
			if err := m.Lock(i, e, X); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			m.ReleaseAll(i)
		}()
		waitQueued(t, m, int(i-1)) // deterministic queue order
	}
	m.ReleaseAll(1)
	wg.Wait()
	if len(order) != 3 || order[0] != 2 || order[1] != 3 || order[2] != 4 {
		t.Fatalf("grant order = %v, want [2 3 4]", order)
	}
}

func TestNoConflictingGrantsProperty(t *testing.T) {
	// Random transactions hammer a small set of locks; at every
	// instant the granted set must be pairwise compatible. Violations
	// are detected inside the manager by auditing after each grant.
	m := NewManager()
	names := []Name{Entity(1), Entity(2), Relation(1)}
	modes := []Mode{IS, IX, S, X}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	audit := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, h := range m.locks {
			g := h.granted
			for i := 0; i < len(g); i++ {
				for j := i + 1; j < len(g); j++ {
					if !compatible[g[i].mode][g[j].mode] {
						t.Errorf("incompatible grants: txn %d %v vs txn %d %v",
							g[i].txn, g[i].mode, g[j].txn, g[j].mode)
					}
				}
			}
		}
	}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		// Disjoint id ranges: two workers sharing a txn id would break
		// the one-pending-request-per-transaction rule and hang.
		txnBase := uint64(w)<<32 + 1
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(txnBase)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				txn := txnBase + uint64(i)
				n := 1 + rng.Intn(3)
				for j := 0; j < n; j++ {
					name := names[rng.Intn(len(names))]
					mode := modes[rng.Intn(len(modes))]
					if err := m.Lock(txn, name, mode); err != nil {
						break // deadlock: abort
					}
				}
				m.ReleaseAll(txn)
			}
		}()
	}
	deadline := time.After(300 * time.Millisecond)
	for {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			audit()
			return
		default:
			audit()
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestHeldLocksSnapshot(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, Relation(1), IX); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, Entity(5), X); err != nil {
		t.Fatal(err)
	}
	got := m.HeldLocks(1)
	if len(got) != 2 || got[Relation(1)] != IX || got[Entity(5)] != X {
		t.Fatalf("HeldLocks = %v", got)
	}
	m.ReleaseAll(1)
	if len(m.HeldLocks(1)) != 0 {
		t.Fatal("locks survive ReleaseAll")
	}
}

func TestLatchNames(t *testing.T) {
	// Distinct kinds with equal IDs are distinct locks.
	m := NewManager()
	if err := m.Lock(1, Relation(1), X); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, Latch(1), X); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(3, Entity(1), X); err != nil {
		t.Fatal(err)
	}
}
