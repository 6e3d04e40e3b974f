package experiments

import (
	"math/rand"
	"sort"
)

// PredeclareResult is experiment R2: §2.5 describes two ways a
// transaction can drive recovery — (1) predeclare the relations it
// needs and wait until they are restored in their entirety, or (2)
// reference the database and restore partitions on demand — and notes
// that "experimentation on an actual implementation is required to
// resolve this issue". This experiment runs both against the same
// crashed database and workload.
type PredeclareResult struct {
	Partitions int
	HotParts   int
	Txns       int

	// Predeclare (method 1): every partition the workload could touch
	// is restored before the first transaction runs.
	PredeclareFirstUS int64 // latency of the first transaction
	PredeclareTotalUS int64 // time until the last transaction finished

	// On demand (method 2): each transaction restores what it touches.
	DemandFirstUS int64 // latency of the first transaction
	DemandP50US   int64 // median transaction latency
	DemandMaxUS   int64 // worst transaction latency (cold-partition hit)
	DemandTotalUS int64
}

// PredeclareVsDemand crashes a database of nParts partitions and runs
// txns transactions, each touching 1–3 partitions drawn from a hot set
// of hotParts (90%) or the cold remainder (10%), under both §2.5
// recovery-driving methods. Latencies are simulated disk time.
func PredeclareVsDemand(nParts, hotParts, txns, recsPerPart int) (*PredeclareResult, error) {
	f, err := crashedFixture(restartConfig(), nParts, recsPerPart, nil, nil)
	if err != nil {
		return nil, err
	}

	// The workload: txn i touches these partitions.
	rng := rand.New(rand.NewSource(99))
	touches := make([][]int, txns)
	for i := range touches {
		n := 1 + rng.Intn(3)
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.9 {
				touches[i] = append(touches[i], rng.Intn(hotParts))
			} else {
				touches[i] = append(touches[i], hotParts+rng.Intn(nParts-hotParts))
			}
		}
	}

	res := &PredeclareResult{Partitions: nParts, HotParts: hotParts, Txns: txns}

	// Method 1, predeclare: every transaction waits for the full
	// restore, so the first one's latency is the whole reload
	// (transactions themselves are memory-speed and contribute ~nothing
	// in disk time).
	if _, res.PredeclareFirstUS, err = f.demandAll(0); err != nil {
		return nil, err
	}
	res.PredeclareTotalUS = res.PredeclareFirstUS

	// Method 2, on demand, from the same crashed state: each
	// transaction restores what it touches.
	h, err := f.restart()
	if err != nil {
		return nil, err
	}
	defer h.m.Stop()
	var latencies []int64
	total := int64(0)
	for _, parts := range touches {
		before := h.diskUS()
		for _, part := range parts {
			if err := h.recover(part); err != nil {
				return nil, err
			}
		}
		lat := h.diskUS() - before
		latencies = append(latencies, lat)
		total += lat
	}
	res.DemandFirstUS = latencies[0]
	res.DemandTotalUS = total
	sorted := append([]int64(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	res.DemandP50US = sorted[len(sorted)/2]
	res.DemandMaxUS = sorted[len(sorted)-1]
	return res, nil
}
