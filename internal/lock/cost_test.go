package lock

import (
	"fmt"
	"runtime"
	"testing"
)

// debitCreditLocks is the lock footprint of one small transaction:
// fresh intention and entity locks, the conversions an update makes of
// them, and the release.
func debitCreditLocks(m *Manager, txn uint64) {
	_ = m.Lock(txn, Relation(1), IS) // uncontended: cannot fail
	_ = m.Lock(txn, Entity(txn), S)
	_ = m.Lock(txn, Entity(txn+1<<32), S)
	_ = m.Lock(txn, Relation(1), IX)
	_ = m.Lock(txn, Entity(txn), X)
	m.ReleaseAll(txn)
}

func TestUncontendedPathAllocatesNothing(t *testing.T) {
	m := NewManager()
	txn := uint64(0)
	run := func() {
		txn++
		debitCreditLocks(m, txn)
	}
	for i := 0; i < 100; i++ {
		run() // fill the free lists and size the maps
	}
	if n := testing.AllocsPerRun(1000, run); n != 0 {
		t.Fatalf("uncontended lock, conversion and release allocate %v times per transaction, want 0", n)
	}
}

// takeMany gives txn an S lock on n distinct entities.
func takeMany(tb testing.TB, m *Manager, txn uint64, n int) {
	for i := 0; i < n; i++ {
		if err := m.Lock(txn, Entity(1<<40|uint64(i)), S); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestDetectionWalksOnlyQueuedHeads pins the cost model: deadlock
// detection examines no lock head while nothing is queued, however
// large the table is or was, and only heads with a queue otherwise.
func TestDetectionWalksOnlyQueuedHeads(t *testing.T) {
	m := NewManager()
	takeMany(t, m, 1, 10000)
	m.ReleaseAll(1)
	debitCreditLocks(m, 2)
	if m.headsWalked != 0 {
		t.Fatalf("conversions after a released 10000-lock transaction walked %d lock heads, want 0", m.headsWalked)
	}

	// The same with the big transaction still holding its locks and one
	// unrelated request queued: each detection pass walks that one head.
	takeMany(t, m, 3, 10000)
	if err := m.Lock(4, Entity(7), X); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- m.Lock(5, Entity(7), X) }()
	for !m.HasWaiters() {
		runtime.Gosched()
	}
	before := m.headsWalked
	if err := m.Lock(6, Relation(1), IS); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(6, Relation(1), IX); err != nil { // one conversion grant, one pass
		t.Fatal(err)
	}
	if got := m.headsWalked - before; got != 1 {
		t.Fatalf("a conversion with one queue among 10002 lock heads walked %d heads, want 1", got)
	}
	m.ReleaseAll(4)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLockConvertAfterBigTxn must be flat in the size of a
// transaction that came and went before the measured ones.
func BenchmarkLockConvertAfterBigTxn(b *testing.B) {
	for _, big := range []int{0, 10000} {
		b.Run(fmt.Sprintf("big=%d", big), func(b *testing.B) {
			m := NewManager()
			takeMany(b, m, 1, big)
			m.ReleaseAll(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				debitCreditLocks(m, uint64(i+2))
			}
		})
	}
}
