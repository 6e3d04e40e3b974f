// Package workload provides the synthetic workload generators used by
// the benchmark harness: Gray's debit/credit transaction mix
// ([Gray 85], the paper's §3.2 reference point of four log records per
// transaction), open-loop arrival schedules, REDO record streams, and
// skewed partition-access patterns (hot/cold and Zipf) that drive the
// checkpoint-frequency and recovery experiments.
package workload

import (
	"math/rand"
	"time"

	"mmdb/internal/addr"
	"mmdb/internal/wal"
)

// Op is one abstract operation against an account-style relation; the
// driver maps keys to rows.
type Op struct {
	Account int64
	Teller  int64
	Branch  int64
	Delta   float64
}

// KeyDist generates account keys.
type KeyDist interface {
	Next() int64
}

// Uniform draws keys uniformly from [0, N).
type Uniform struct {
	N   int64
	Rng *rand.Rand
}

// Next implements KeyDist.
func (u Uniform) Next() int64 { return u.Rng.Int63n(u.N) }

// HotCold draws from the first Hot keys with probability HotProb, else
// from the cold remainder — the access pattern behind the paper's
// distinction between update-count and age checkpoints (§3.3) and
// between demanded and background partitions during recovery (§3.4).
type HotCold struct {
	N       int64
	Hot     int64
	HotProb float64
	Rng     *rand.Rand
}

// Next implements KeyDist.
func (h HotCold) Next() int64 {
	if h.Rng.Float64() < h.HotProb {
		return h.Rng.Int63n(h.Hot)
	}
	if h.N <= h.Hot {
		return h.Rng.Int63n(h.N)
	}
	return h.Hot + h.Rng.Int63n(h.N-h.Hot)
}

// Zipf draws keys with a Zipfian skew.
type Zipf struct{ z *rand.Zipf }

// NewZipf creates a Zipf distribution over [0, n) with exponent s > 1.
func NewZipf(rng *rand.Rand, s float64, n int64) Zipf {
	return Zipf{z: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

// Next implements KeyDist.
func (z Zipf) Next() int64 { return int64(z.z.Uint64()) }

// DebitCredit generates Gray-style debit/credit transactions: each
// touches one account, one teller, one branch, and appends a history
// row — four update-style log records per transaction.
func DebitCredit(accounts KeyDist, tellers, branches int64, rng *rand.Rand, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{
			Account: accounts.Next(),
			Teller:  rng.Int63n(tellers),
			Branch:  rng.Int63n(branches),
			Delta:   float64(rng.Intn(2000)-1000) / 100,
		}
	}
	return ops
}

// Arrivals generates an open-loop arrival schedule: exponential
// inter-arrival gaps around a base rate, periodically multiplied by a
// burst factor. Open-loop means the schedule is fixed up front —
// arrivals do not wait for earlier requests to complete, so a slow
// server accumulates backlog instead of silently throttling the
// offered load (the coordinated-omission trap closed-loop drivers
// fall into).
type Arrivals struct {
	// Rate is the mean arrival rate per second in the calm phase.
	Rate float64
	// Burst multiplies the rate during burst windows; <= 1 disables
	// bursts.
	Burst float64
	// BurstEvery is the burst cycle period; a burst starts at each
	// multiple. Zero disables bursts.
	BurstEvery time.Duration
	// BurstLen is how long each burst lasts within its cycle.
	BurstLen time.Duration
	// Rng drives the exponential gaps.
	Rng *rand.Rand
}

// Schedule returns n arrival offsets from time zero, nondecreasing.
func (a Arrivals) Schedule(n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0 // seconds
	for i := range out {
		rate := a.Rate
		if a.Burst > 1 && a.BurstEvery > 0 && a.BurstLen > 0 {
			phase := time.Duration(t*float64(time.Second)) % a.BurstEvery
			if phase < a.BurstLen {
				rate *= a.Burst
			}
		}
		t += a.Rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// RecordStream generates raw REDO records for the logging-capacity
// experiments (Graph 1/2): n records of the given payload size spread
// over nParts partitions by the key distribution. Record layout and
// header overhead match the real system exactly.
func RecordStream(rng *rand.Rand, n, payload, nParts int, dist KeyDist, txnRecs int) []wal.Record {
	recs := make([]wal.Record, n)
	txn := uint64(1)
	for i := range recs {
		if txnRecs > 0 && i > 0 && i%txnRecs == 0 {
			txn++
		}
		part := addr.PartitionNum(0)
		if nParts > 1 {
			if dist != nil {
				part = addr.PartitionNum(dist.Next() % int64(nParts))
			} else {
				part = addr.PartitionNum(rng.Intn(nParts))
			}
		}
		data := make([]byte, payload)
		rng.Read(data)
		recs[i] = wal.Record{
			Tag:  wal.TagRelWrite,
			Txn:  txn,
			PID:  addr.PartitionID{Segment: 2, Part: part},
			Slot: addr.Slot(i % 64),
			Off:  0,
			Data: data,
		}
	}
	return recs
}
