package core

// Restart progress accounting: which fraction of the database — and,
// heat-weighted, which fraction of the pre-crash *traffic* — is
// resident again. The paper's §2.5 sweep reports only done/not-done;
// production operators care about time-to-p99-restored: the moment
// ≥99% of pre-crash access weight is back in memory, which on skewed
// workloads arrives long before the last cold partition. The ops plane
// (/recovery) and the restart metrics read this state live.

import (
	"sync/atomic"
	"time"

	"mmdb/internal/addr"
	"mmdb/internal/heat"
	"mmdb/internal/trace"
)

// ttp99Permille is the restored-weight threshold (per-mille) at which
// the time-to-p99-restored gauge stamps.
const ttp99Permille = 990

// progressState is the manager's live restart bookkeeping. weights and
// ranked are immutable after New; everything else is atomics, so
// restorePartition's hot path pays a few atomic adds.
type progressState struct {
	weights     map[addr.PartitionID]int64 // pre-crash heat per partition
	ranked      []heat.PartHeat            // pre-crash ranking, hottest first
	totalWeight int64

	restartStart   atomic.Int64 // unixnano Restart began; 0 = fresh boot
	partsTotal     atomic.Int64 // sweep enumeration size (0 until the sweep runs)
	partsRecovered atomic.Int64
	weightRestored atomic.Int64
	ttp99          atomic.Int64 // ns from restartStart; 0 = not stamped
	sweepDone      atomic.Bool
	heatOrdered    atomic.Bool // the sweep ran hottest-first
}

func (p *progressState) init(ranked []heat.PartHeat) {
	p.ranked = ranked
	p.weights = make(map[addr.PartitionID]int64, len(ranked))
	for _, ph := range ranked {
		p.weights[ph.PID] = ph.Weight
		p.totalWeight += ph.Weight
	}
}

// recovered records one completed recovery transaction, stamping the
// ttp99 moment when the restored weight crosses the threshold. It
// returns the stamped nanoseconds the first time the threshold is
// crossed, else 0.
func (p *progressState) recovered(pid addr.PartitionID) (stamped int64, ppm int64) {
	p.partsRecovered.Add(1)
	w := p.weights[pid]
	if w == 0 {
		return 0, -1
	}
	restored := p.weightRestored.Add(w)
	ppm = restored * 1_000_000 / p.totalWeight
	start := p.restartStart.Load()
	if start == 0 || p.ttp99.Load() != 0 {
		return 0, ppm
	}
	if restored*1000 < p.totalWeight*ttp99Permille {
		return 0, ppm
	}
	ns := time.Now().UnixNano() - start
	if ns < 1 {
		ns = 1 // the gauge uses 0 as "not stamped"
	}
	if p.ttp99.CompareAndSwap(0, ns) {
		return ns, ppm
	}
	return 0, ppm
}

// RecoveryProgress is a point-in-time view of the current restart, for
// the ops plane's /recovery endpoint and tests.
type RecoveryProgress struct {
	// Recovering is true from Restart until the background sweep
	// completes (false on a fresh boot that never crashed).
	Recovering bool `json:"recovering"`
	// HeatOrdered reports whether the sweep ordered partitions by the
	// recovered pre-crash heat ranking.
	HeatOrdered bool `json:"heat_ordered"`
	// PartsTotal is the sweep's enumeration size; before the sweep has
	// enumerated the catalogs it falls back to the recovered ranking
	// size.
	PartsTotal     int64 `json:"parts_total"`
	PartsRecovered int64 `json:"parts_recovered"`
	// HeatWeightTotal/Restored weight restart progress by pre-crash
	// access heat; HeatFractionRestored is their ratio (0 when no heat
	// snapshot was recovered).
	HeatWeightTotal      int64   `json:"heat_weight_total"`
	HeatWeightRestored   int64   `json:"heat_weight_restored"`
	HeatFractionRestored float64 `json:"heat_fraction_restored"`
	// TTP99RestoredNS is the nanoseconds from Restart until ≥99% of
	// pre-crash access weight was resident; 0 until stamped.
	TTP99RestoredNS int64 `json:"ttp99_restored_ns"`
	SweepDone       bool  `json:"sweep_done"`
	// TopHot lists the hottest pre-crash partitions and whether each is
	// resident again.
	TopHot []HotPartition `json:"top_hot,omitempty"`
}

// HotPartition is one entry of the pre-crash heat ranking with its
// live recovery state.
type HotPartition struct {
	Segment   uint32 `json:"segment"`
	Part      uint32 `json:"part"`
	Weight    int64  `json:"weight"`
	Recovered bool   `json:"recovered"`
}

// RecoveryProgress snapshots the restart progress, including the topK
// hottest pre-crash partitions with their residency state.
func (m *Manager) RecoveryProgress(topK int) RecoveryProgress {
	p := &m.prog
	out := RecoveryProgress{
		HeatOrdered:        p.heatOrdered.Load(),
		PartsTotal:         p.partsTotal.Load(),
		PartsRecovered:     p.partsRecovered.Load(),
		HeatWeightTotal:    p.totalWeight,
		HeatWeightRestored: p.weightRestored.Load(),
		TTP99RestoredNS:    p.ttp99.Load(),
		SweepDone:          p.sweepDone.Load(),
	}
	out.Recovering = p.restartStart.Load() != 0 && !out.SweepDone
	if out.PartsTotal == 0 {
		out.PartsTotal = int64(len(p.ranked))
	}
	if p.totalWeight > 0 {
		out.HeatFractionRestored = float64(out.HeatWeightRestored) / float64(p.totalWeight)
	}
	for i, ph := range p.ranked {
		if i >= topK {
			break
		}
		out.TopHot = append(out.TopHot, HotPartition{
			Segment:   uint32(ph.PID.Segment),
			Part:      uint32(ph.PID.Part),
			Weight:    ph.Weight,
			Recovered: m.store.Resident(ph.PID),
		})
	}
	return out
}

// Heat returns the manager's heat tracker (nil when disabled).
func (m *Manager) Heat() *heat.Tracker { return m.heat }

// RecoveredHeat returns the pre-crash heat ranking recovered from
// stable memory at attach, hottest first.
func (m *Manager) RecoveredHeat() []heat.PartHeat { return m.prog.ranked }

// noteRecovered is restorePartition's progress hook: counters, the
// heat-weighted fraction gauge, and the one-shot ttp99 stamp.
func (m *Manager) noteRecovered(pid addr.PartitionID) {
	stamped, ppm := m.prog.recovered(pid)
	if ppm >= 0 {
		m.metrics.HeatWeightPPM.Set(ppm)
	}
	if stamped > 0 {
		m.metrics.TTP99Restored.Set(stamped)
		m.tracer.Emit(trace.Event{Kind: trace.KindHeatP99Restored, Arg: uint64(stamped)})
	}
}
