package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mmdb/internal/addr"
	"mmdb/internal/core"
	"mmdb/internal/wal"
)

// LogStreamPoint is one stream-count sample of the group-commit scaling
// benchmark: wall-clock commit throughput and host-measured commit
// latency for a fixed concurrent workload against an SLB sharded into
// Streams per-core log streams.
type LogStreamPoint struct {
	Streams       int
	TxnsPerSec    float64
	P50CommitUS   float64
	P99CommitUS   float64
	EpochsSealed  int64
	ChainsPerSeal float64
}

// LogStreamScaling measures commit throughput against the stream count:
// the same workload — workers concurrent committers, txns transactions
// each of recsPerTxn small records, every committer affinitized to
// stream (txnID mod streams) — is run once per entry of streamCounts.
// With one stream every committer serializes on a single stable-memory
// latch; with per-core streams the latch shards away and group commit
// amortizes the seal, so throughput should scale while single-stream
// p99 commit latency stays flat (the eager-seal default adds no timer
// wait). Latencies are host wall-clock, not simulated cost: the latch
// contention under test is a real-machine effect.
func LogStreamScaling(streamCounts []int, workers, txns, recsPerTxn int) ([]LogStreamPoint, error) {
	if len(streamCounts) == 0 {
		streamCounts = []int{1, 2, 4, 8}
	}
	if workers <= 0 {
		workers = 8
	}
	if txns <= 0 {
		txns = 4000
	}
	if recsPerTxn <= 0 {
		recsPerTxn = 4
	}
	var out []LogStreamPoint
	for _, streams := range streamCounts {
		p, err := runLogStreams(streams, workers, txns, recsPerTxn)
		if err != nil {
			return nil, fmt.Errorf("experiments: logstreams at %d streams: %w", streams, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func runLogStreams(streams, workers, txns, recsPerTxn int) (LogStreamPoint, error) {
	cfg := core.DefaultConfig()
	cfg.LogStreams = streams
	// Keep the run commit-bound: a huge update threshold suppresses
	// checkpoints, ample stable memory keeps block allocation from failing,
	// and the sorter drains sealed chains concurrently as in production.
	cfg.UpdateThreshold = 1 << 30
	cfg.StableBytes = 256 << 20
	cfg.BackgroundRecovery = false
	h, err := newHarness(cfg)
	if err != nil {
		return LogStreamPoint{}, err
	}
	const nParts = 32
	h.ensureParts(2, nParts)
	h.m.Start()
	defer h.m.Stop()

	perWorker := txns / workers
	lat := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lats := make([]time.Duration, 0, perWorker)
			recs := make([]wal.Record, recsPerTxn)
			for k := 0; k < perWorker; k++ {
				for i := range recs {
					recs[i] = wal.Record{
						Tag:  wal.TagRelInsert,
						PID:  addr.PartitionID{Segment: 2, Part: addr.PartitionNum((w*perWorker + k + i) % nParts)},
						Slot: addr.Slot(i),
						Data: []byte("logstream-payload-24b"),
					}
				}
				// txnID ≡ w (mod workers): with workers a multiple of the
				// stream count, each worker stays on one stream.
				id := uint64(w + workers*k + 1)
				t0 := time.Now()
				if err := h.m.InjectCommitted(id, recs); err != nil {
					return
				}
				lats = append(lats, time.Since(t0))
			}
			lat[w] = lats
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	h.m.WaitIdle()

	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return LogStreamPoint{}, fmt.Errorf("no commits completed")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	st := h.m.Metrics()
	p := LogStreamPoint{
		Streams:      streams,
		TxnsPerSec:   float64(len(all)) / elapsed.Seconds(),
		P50CommitUS:  float64(all[len(all)/2].Microseconds()),
		P99CommitUS:  float64(all[len(all)*99/100].Microseconds()),
		EpochsSealed: st.EpochsSealed.Value(),
	}
	if st.EpochsSealed.Value() > 0 {
		p.ChainsPerSeal = float64(len(all)) / float64(st.EpochsSealed.Value())
	}
	return p, nil
}
