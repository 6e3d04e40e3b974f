package experiments

import (
	"fmt"
	"sync"

	"mmdb/internal/core"
	"mmdb/internal/wal"
	"mmdb/internal/workload"

	"math/rand"
	"time"
)

func nowNS() int64 { return time.Now().UnixNano() }

// HotspotResult is experiment A2: per-transaction SLB block chains
// (critical sections only for block allocation, §2.3.1) against a
// single latched global log tail.
type HotspotResult struct {
	Writers        int
	RecordsEach    int
	PerTxnChainNS  int64 // wall-clock ns total, per-transaction chains
	GlobalTailNS   int64 // wall-clock ns total, single latched tail
	SlowdownFactor float64
	// Hardware-independent contention measure: critical-section
	// entries on the shared structure. Per-transaction chains enter a
	// critical section only to allocate a block (§2.3.1); the global
	// tail enters one per record.
	ChainCriticalSections  int64
	GlobalCriticalSections int64
}

// globalTail is the strawman: every record append takes one global
// latch — the traditional log-tail hot spot.
type globalTail struct {
	mu  sync.Mutex
	buf []byte
}

func (g *globalTail) append(enc []byte) {
	g.mu.Lock()
	g.buf = append(g.buf, enc...)
	if len(g.buf) > 1<<20 {
		g.buf = g.buf[:0]
	}
	g.mu.Unlock()
}

// RunHotspot measures both designs with the given concurrency, using
// the real SLB for the chain side. Returns wall-clock totals.
func RunHotspot(writers, recsEach int) (*HotspotResult, error) {
	cfg := core.DefaultConfig()
	cfg.UpdateThreshold = 1 << 30
	cfg.StableBytes = 512 << 20
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	h.ensureParts(2, 8)
	h.m.Start()
	defer h.m.Stop()

	mkRecs := func(seed int64) []wal.Record {
		return workload.RecordStream(rand.New(rand.NewSource(seed)), recsEach, 8, 8, nil, 0)
	}

	res := &HotspotResult{Writers: writers, RecordsEach: recsEach}

	// Per-transaction chains: each writer owns its chain; the only
	// critical section is block allocation inside the SLB.
	var wg sync.WaitGroup
	startChain := nowNS()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			recs := mkRecs(int64(w))
			_ = h.m.InjectCommitted(uint64(1000+w), recs)
		}(w)
	}
	wg.Wait()
	res.PerTxnChainNS = nowNS() - startChain

	// Global latched tail: every record contends on one mutex.
	g := &globalTail{}
	startTail := nowNS()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			recs := mkRecs(int64(w))
			for i := range recs {
				g.append(recs[i].Encode(nil))
			}
		}(w)
	}
	wg.Wait()
	res.GlobalTailNS = nowNS() - startTail
	if res.PerTxnChainNS > 0 {
		res.SlowdownFactor = float64(res.GlobalTailNS) / float64(res.PerTxnChainNS)
	}
	// Contention counts: one critical section per SLB block allocated
	// vs one per record appended to the global tail.
	encSize := mkRecs(0)[0].EncodedSize()
	recsPerBlock := cfg.SLBBlockSize / encSize
	if recsPerBlock < 1 {
		recsPerBlock = 1
	}
	total := int64(writers) * int64(recsEach)
	res.ChainCriticalSections = (total + int64(recsPerBlock) - 1) / int64(recsPerBlock)
	res.GlobalCriticalSections = total
	return res, nil
}

// FormatSeries renders series as an aligned text table.
func FormatSeries(title, xLabel, yLabel string, series []Series) string {
	out := fmt.Sprintf("%s\n  %-12s", title, xLabel)
	for _, s := range series {
		out += fmt.Sprintf("  %28s", s.Label)
	}
	out += fmt.Sprintf("\n  %-12s", "")
	for range series {
		out += fmt.Sprintf("  %13s %14s", "analytic", "measured")
	}
	out += "\n"
	if len(series) == 0 || len(series[0].Points) == 0 {
		return out
	}
	for i := range series[0].Points {
		out += fmt.Sprintf("  %-12.4g", series[0].Points[i].X)
		for _, s := range series {
			out += fmt.Sprintf("  %13.4g %14.4g", s.Points[i].Analytic, s.Points[i].Measured)
		}
		out += "\n"
	}
	out += fmt.Sprintf("  (y = %s)\n", yLabel)
	return out
}
