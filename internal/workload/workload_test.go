package workload

import (
	"math/rand"
	"testing"
	"time"
)

func TestUniformBounds(t *testing.T) {
	u := Uniform{N: 100, Rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 10000; i++ {
		k := u.Next()
		if k < 0 || k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestHotColdSkew(t *testing.T) {
	h := HotCold{N: 1000, Hot: 10, HotProb: 0.9, Rng: rand.New(rand.NewSource(2))}
	hot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		k := h.Next()
		if k < 0 || k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		if k < 10 {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot fraction = %.3f, want ~0.9", frac)
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(3)), 1.5, 1000)
	counts := make(map[int64]int)
	const n = 20000
	for i := 0; i < n; i++ {
		k := z.Next()
		if k < 0 || k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	if counts[0] < counts[500]*5 {
		t.Fatalf("no skew: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
}

func TestDebitCreditShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ops := DebitCredit(Uniform{N: 100, Rng: rng}, 10, 2, rng, 500)
	if len(ops) != 500 {
		t.Fatalf("%d ops", len(ops))
	}
	for _, op := range ops {
		if op.Teller < 0 || op.Teller >= 10 || op.Branch < 0 || op.Branch >= 2 {
			t.Fatalf("teller/branch out of range: %+v", op)
		}
	}
}

func TestRecordStream(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	recs := RecordStream(rng, 1000, 16, 8, nil, 4)
	if len(recs) != 1000 {
		t.Fatalf("%d records", len(recs))
	}
	parts := map[uint32]bool{}
	txns := map[uint64]int{}
	for i := range recs {
		if len(recs[i].Data) != 16 {
			t.Fatalf("payload %d", len(recs[i].Data))
		}
		parts[uint32(recs[i].PID.Part)] = true
		txns[recs[i].Txn]++
	}
	if len(parts) < 4 {
		t.Fatalf("records spread over %d partitions", len(parts))
	}
	if len(txns) != 250 {
		t.Fatalf("%d transactions for 1000 records at 4/txn", len(txns))
	}
	for id, n := range txns {
		if n != 4 {
			t.Fatalf("txn %d has %d records", id, n)
		}
	}
}

func TestArrivalsSchedule(t *testing.T) {
	a := Arrivals{Rate: 10000, Rng: rand.New(rand.NewSource(7))}
	sched := a.Schedule(10000)
	if len(sched) != 10000 {
		t.Fatalf("%d arrivals", len(sched))
	}
	for i := 1; i < len(sched); i++ {
		if sched[i] < sched[i-1] {
			t.Fatalf("arrival %d before %d", i, i-1)
		}
	}
	// 10k arrivals at 10k/s should take about a second.
	total := sched[len(sched)-1].Seconds()
	if total < 0.8 || total > 1.25 {
		t.Fatalf("10k arrivals at 10k/s spanned %.2fs", total)
	}
}

func TestArrivalsBursts(t *testing.T) {
	a := Arrivals{
		Rate:       1000,
		Burst:      8,
		BurstEvery: 100 * time.Millisecond,
		BurstLen:   20 * time.Millisecond,
		Rng:        rand.New(rand.NewSource(7)),
	}
	sched := a.Schedule(20000)
	inBurst, calm := 0, 0
	for _, at := range sched {
		if at%a.BurstEvery < a.BurstLen {
			inBurst++
		} else {
			calm++
		}
	}
	// Burst windows are 20% of wall time but run 8x the rate: they
	// should hold well over half the arrivals (8*20 / (8*20+80) = 2/3).
	if frac := float64(inBurst) / float64(len(sched)); frac < 0.5 {
		t.Fatalf("burst windows hold only %.0f%% of arrivals", 100*frac)
	}
}
