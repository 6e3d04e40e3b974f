package experiments

import (
	"fmt"
	"sort"

	"mmdb/internal/addr"
	"mmdb/internal/heat"
	"mmdb/internal/trace"
)

// HeatOrderingPoint is one worker-count sample of the heat-ordered vs
// catalog-order restart benchmark: how long until 99% of the pre-crash
// access weight is resident again, under the two sweep orderings.
type HeatOrderingPoint struct {
	Partitions int
	HotParts   int
	Workers    int
	// OrderedTTP99MS and CatalogTTP99MS are the simulated
	// time-to-p99-restored: the charged disk + recovery-CPU cost until
	// partitions holding >= 99% of the pre-crash heat weight have been
	// recovered, replaying each worker's round-robin shard in the
	// sweep's actual order. Ordered uses the recovered heat ranking
	// (hottest first); Catalog keeps the directory order.
	OrderedTTP99MS float64
	CatalogTTP99MS float64
	// Speedup is CatalogTTP99MS / OrderedTTP99MS.
	Speedup float64
	// FullSweepMS is the simulated makespan of the whole sweep — the
	// most-loaded worker's charged cost, identical for both orderings.
	FullSweepMS float64
	// RealOrderedUS / RealCatalogUS are the host-clock ttp99 values the
	// manager stamped (restart/ttp99_restored), for reference; host
	// scheduling noise makes them less stable than the simulated cost.
	RealOrderedUS int64
	RealCatalogUS int64
	// Errors sums the sweep failed-recovery counters (must be zero).
	Errors int64
}

// HeatOrderingTTP99 measures the tentpole claim behind heat-ordered
// recovery: on a skewed workload, sweeping hottest-first restores 99%
// of the pre-crash access weight far sooner than the catalog order,
// while the full sweep takes the same time either way. The stable state
// — checkpointed partitions, post-checkpoint log records, and a
// persisted heat snapshot with hotParts hot partitions scattered
// through the catalog — is built once and then crashed and swept twice
// per worker count, once heat-ordered and once with Sweep's
// catalog-order baseline.
func HeatOrderingTTP99(nParts, hotParts int, workerCounts []int, recsPerPart int) ([]HeatOrderingPoint, error) {
	if nParts == 0 {
		nParts = 128
	}
	if hotParts == 0 {
		hotParts = nParts / 8
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	if recsPerPart == 0 {
		recsPerPart = 400
	}
	cfg := restartConfig()
	// The trace read below: about 8 events of up to 32 B per partition.
	cfg.FlightRecorderBytes = 8 * 32 * nParts
	cfg.HeatSnapshotBytes = 64 << 10
	cfg.HeatPersistEvery = 1 << 30 // persist only on explicit request

	// The stable state of the sweep-scaling benchmark, plus a skewed
	// access profile persisted into the heat snapshot before the crash.
	f, err := crashedFixture(cfg, nParts, recsPerPart, nil, func(h *harness, pids []addr.PartitionID) error {
		return skewHeat(h, pids, hotParts)
	})
	if err != nil {
		return nil, err
	}

	// Sweep the same stable state twice per worker count: heat-ordered,
	// then catalog order.
	var out []HeatOrderingPoint
	for _, w := range workerCounts {
		pt := HeatOrderingPoint{Partitions: nParts, HotParts: hotParts, Workers: w}
		for _, catalogOrder := range []bool{false, true} {
			h, chargedUS, _, err := f.sweepOnce(w, catalogOrder)
			if err != nil {
				return nil, err
			}
			ranked := h.m.RecoveredHeat()
			if len(ranked) != nParts {
				return nil, fmt.Errorf("experiments: heat snapshot recovered %d of %d partitions", len(ranked), nParts)
			}
			// Per-partition relative cost from the redo trace: one unit
			// for the checkpoint image plus one per log page replayed.
			cost := map[addr.PartitionID]float64{}
			for _, e := range h.m.TraceEvents() {
				if e.Kind == trace.KindPartRedo {
					pid := addr.PartitionID{Segment: addr.SegmentID(e.Seg), Part: addr.PartitionNum(e.Part)}
					cost[pid] = 1 + float64(e.Arg2)
				}
			}
			if len(cost) != nParts {
				return nil, fmt.Errorf("experiments: redo trace covered %d of %d partitions", len(cost), nParts)
			}
			order := append([]addr.PartitionID(nil), f.pids...)
			if !catalogOrder {
				weights := map[addr.PartitionID]int64{}
				for _, ph := range ranked {
					weights[ph.PID] = ph.Weight
				}
				sort.SliceStable(order, func(i, j int) bool {
					return weights[order[i]] > weights[order[j]]
				})
			}
			ttp99US, fullUS := simulateTTP99(order, w, cost, ranked, chargedUS)
			prog := h.m.RecoveryProgress(0)
			if catalogOrder {
				pt.CatalogTTP99MS = ttp99US / 1e3
				pt.RealCatalogUS = prog.TTP99RestoredNS / 1e3
			} else {
				pt.OrderedTTP99MS = ttp99US / 1e3
				pt.RealOrderedUS = prog.TTP99RestoredNS / 1e3
			}
			pt.FullSweepMS = fullUS / 1e3
			pt.Errors += h.m.Metrics().RecoverySweepErrors.Value()
		}
		if pt.OrderedTTP99MS > 0 {
			pt.Speedup = pt.CatalogTTP99MS / pt.OrderedTTP99MS
		}
		out = append(out, pt)
	}
	return out, nil
}

// skewHeat gives the live generation a skewed access profile and
// persists it: hotParts hot partitions scattered evenly through the
// catalog (so the catalog order reaches the last one late), carrying
// ~1000x the touch weight of a cold partition. The build phase itself
// touched every partition (inserts, checkpoints, updates all go through
// the store), so that uniform noise is forgotten first.
func skewHeat(h *harness, pids []addr.PartitionID, hotParts int) error {
	for _, pid := range pids {
		h.m.Heat().Forget(pid)
	}
	stride := len(pids) / hotParts
	hotSet := map[addr.PartitionID]bool{}
	for k := 0; k < hotParts; k++ {
		pid := pids[k*stride+stride/2]
		hotSet[pid] = true
		for i := 0; i < (hotParts-k)*1000; i++ {
			if _, err := h.store.Partition(pid); err != nil {
				return err
			}
		}
	}
	for _, pid := range pids {
		if !hotSet[pid] {
			if _, err := h.store.Partition(pid); err != nil {
				return err
			}
		}
	}
	h.m.Heat().Persist()
	return nil
}

// simulateTTP99 replays the sweep's deterministic schedule — worker i
// recovers order[i], order[i+W], ... sequentially — in charged-cost
// time, and returns the simulated microseconds until partitions holding
// >= 99% of the heat weight are recovered, plus the full makespan. The
// total charged cost of the sweep is distributed across partitions in
// proportion to their per-partition cost units.
func simulateTTP99(order []addr.PartitionID, workers int, cost map[addr.PartitionID]float64, ranked []heat.PartHeat, chargedUS float64) (ttp99US, makespanUS float64) {
	var totalUnits float64
	for _, c := range cost {
		totalUnits += c
	}
	usPerUnit := 0.0
	if totalUnits > 0 {
		usPerUnit = chargedUS / totalUnits
	}
	weights := map[addr.PartitionID]int64{}
	var totalWeight int64
	for _, ph := range ranked {
		weights[ph.PID] = ph.Weight
		totalWeight += ph.Weight
	}
	type done struct {
		at     float64
		weight int64
	}
	var events []done
	clock := make([]float64, workers)
	for i, pid := range order {
		wk := i % workers
		clock[wk] += cost[pid] * usPerUnit
		events = append(events, done{at: clock[wk], weight: weights[pid]})
		if clock[wk] > makespanUS {
			makespanUS = clock[wk]
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	var restored int64
	for _, e := range events {
		restored += e.weight
		if restored*1000 >= totalWeight*990 {
			return e.at, makespanUS
		}
	}
	return makespanUS, makespanUS
}
