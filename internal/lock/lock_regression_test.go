package lock

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// Regression tests for two bugs found by randomized stress:
//
//  1. a holder that also had a conversion queued was wrongly removed
//     from other requests' blocker sets ("queued behind you" applied
//     to grants), which could grant conflicting modes and hide
//     deadlock edges;
//  2. conversion grants bypass the queue and change queued waiters'
//     blocker sets without any new lock request, so incrementally
//     maintained waits-for edges went stale and cycles formed
//     undetected (permanent hang).

// TestConversionPairBothQueuedDeadlock is the minimal schedule for bug
// 2: two S holders both queue X conversions; the second must be chosen
// as deadlock victim even though both are "queued".
func TestConversionPairBothQueuedDeadlock(t *testing.T) {
	for round := 0; round < 50; round++ {
		m := NewManager()
		r := Relation(1)
		if err := m.Lock(1, r, S); err != nil {
			t.Fatal(err)
		}
		if err := m.Lock(2, r, S); err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 2)
		var wg sync.WaitGroup
		wg.Add(2)
		convert := func(txn uint64) {
			defer wg.Done()
			err := m.Lock(txn, r, X)
			if errors.Is(err, ErrDeadlock) {
				m.ReleaseAll(txn) // victim aborts, unblocking the other
			}
			errs <- err
		}
		go convert(1)
		go convert(2)
		deadline := time.After(5 * time.Second)
		var failed, ok int
		for i := 0; i < 2; i++ {
			select {
			case err := <-errs:
				switch {
				case errors.Is(err, ErrDeadlock):
					failed++
				case err == nil:
					ok++
				default:
					t.Fatal(err)
				}
			case <-deadline:
				t.Fatal("conversion deadlock not resolved: hang")
			}
		}
		if failed != 1 || ok != 1 {
			t.Fatalf("round %d: failed=%d granted=%d", round, failed, ok)
		}
		wg.Wait()
		m.ReleaseAll(1)
		m.ReleaseAll(2)
	}
}

// TestHolderWithQueuedConversionStillBlocks is bug 1's grant-safety
// half: while txn 1 holds S with an X conversion queued, a fresh S
// request from txn 3 may be granted (S-S compatible, FIFO aside it
// queues behind the conversion), but a fresh X request must NOT be
// granted just because the holder appears in the queue.
func TestHolderWithQueuedConversionStillBlocks(t *testing.T) {
	m := NewManager()
	r := Relation(9)
	if err := m.Lock(1, r, S); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, r, S); err != nil {
		t.Fatal(err)
	}
	convDone := make(chan error, 1)
	go func() { convDone <- m.Lock(1, r, X) }() // waits on txn 2's S
	waitQueued(t, m, 1)

	xDone := make(chan error, 1)
	go func() { xDone <- m.Lock(3, r, X) }() // must wait: 1 and 2 hold S
	waitQueued(t, m, 2)
	if got := m.Held(3, r); got != None {
		t.Fatalf("fresh X request holds %v while two S holders exist", got)
	}
	// Unwind: txn 2 releases; conversion gets X; txn 3 still waits.
	m.ReleaseAll(2)
	if err := <-convDone; err != nil {
		t.Fatal(err)
	}
	if got := m.Held(3, r); got != None {
		t.Fatalf("fresh X request holds %v while converted X held", got)
	}
	m.ReleaseAll(1)
	if err := <-xDone; err != nil {
		t.Fatal(err)
	}
	if m.Held(3, r) != X {
		t.Fatal("txn 3 not granted after all releases")
	}
	m.ReleaseAll(3)
}

// TestReleaseSweepDetectsNewCycle covers the sweep-created cycle: a
// release grants a conversion, which closes a cycle among remaining
// waiters; resolution must fire without any new Lock call.
func TestReleaseSweepDetectsNewCycle(t *testing.T) {
	m := NewManager()
	l1, l2 := Entity(1), Entity(2)
	// txn 1 holds l1(S); txn 2 holds l2(X); txn 3 holds l1(S).
	if err := m.Lock(1, l1, S); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, l2, X); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(3, l1, S); err != nil {
		t.Fatal(err)
	}
	// txn 3 waits for l2 (blocked by 2).
	w3 := make(chan error, 1)
	go func() { w3 <- m.Lock(3, l2, S) }()
	waitQueued(t, m, 1)
	// txn 2 queues a conversion... it needs to WAIT first: 2 requests
	// X on l1 (blocked by holders 1 and 3).
	w2 := make(chan error, 1)
	go func() { w2 <- m.Lock(2, l1, X) }()
	// Cycle already: 2 -> {1,3}, 3 -> 2. Entry-time detection should
	// have fired for txn 2's request (it closed the cycle).
	select {
	case err := <-w2:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("w2: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cycle unresolved")
	}
	m.ReleaseAll(2) // victim aborts
	if err := <-w3; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(3)
}

// TestNoConflictingGrantsUnderConversionChurn hammers conversions
// specifically (the pattern that exposed both bugs) and audits grants.
func TestNoConflictingGrantsUnderConversionChurn(t *testing.T) {
	m := NewManager()
	r := Relation(1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		base := uint64(w)<<32 + 1 // disjoint ids: see TestNoConflictingGrantsProperty
		go func() {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				txn := base + i
				if err := m.Lock(txn, r, S); err != nil {
					continue
				}
				_ = m.Lock(txn, r, X) // may deadlock-abort
				m.ReleaseAll(txn)
			}
		}()
	}
	deadline := time.After(400 * time.Millisecond)
	for {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			return
		default:
			m.mu.Lock()
			for _, h := range m.locks {
				xHolders, sHolders := 0, 0
				for _, g := range h.granted {
					switch g.mode {
					case X:
						xHolders++
					case S:
						sHolders++
					}
				}
				if xHolders > 1 || (xHolders == 1 && sHolders > 0) {
					m.mu.Unlock()
					t.Fatalf("conflicting grants: %d X, %d S", xHolders, sHolders)
				}
			}
			m.mu.Unlock()
			time.Sleep(2 * time.Millisecond)
		}
	}
}
