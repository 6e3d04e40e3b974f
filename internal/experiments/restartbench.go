package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"mmdb/internal/addr"
	"mmdb/internal/baseline"
	"mmdb/internal/core"
	"mmdb/internal/simdisk"
	"mmdb/internal/trace"
	"mmdb/internal/wal"
)

// SweepScalingPoint is one (database size, worker count) sample of the
// `paperbench restart` benchmark.
type SweepScalingPoint struct {
	Partitions int
	Workers    int
	// SweepMS is the simulated sweep wall-clock: the total charged
	// disk + recovery-CPU cost of the sweep, scaled by the critical
	// path — the share of partitions the most-loaded worker actually
	// recovered (from the sweep-worker trace events). With one worker
	// this is the whole cost; with W balanced workers it approaches
	// cost/W.
	SweepMS float64
	// PartsPerSec is the simulated sweep throughput.
	PartsPerSec float64
	// HostMS is the host wall-clock of the sweep, for reference; on a
	// multi-core host it shows the same scaling, on a single core it
	// does not.
	HostMS float64
	// Errors is the sweep's failed-recovery counter (must be zero).
	Errors int64
}

// SweepScaling measures experiment R3: how the §2.5 background sweep's
// completion time scales with the recovery worker count, across
// database sizes. The stable state for each size is built once —
// checkpointed partitions plus post-checkpoint log records — and then
// crashed and swept repeatedly, once per worker count, through the real
// Manager.Sweep worker pool.
func SweepScaling(sizes, workerCounts []int, recsPerPart int) ([]SweepScalingPoint, error) {
	if len(sizes) == 0 {
		sizes = []int{32, 64, 128}
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	if recsPerPart == 0 {
		recsPerPart = 600
	}
	var out []SweepScalingPoint
	for _, nParts := range sizes {
		pts, err := sweepScalingOne(nParts, workerCounts, recsPerPart)
		if err != nil {
			return nil, err
		}
		out = append(out, pts...)
	}
	return out, nil
}

// restartConfig is the one geometry the restart experiments (§3.4.1,
// R2, R3, R5) crash and recover: 16 KiB partitions and 2 KiB log pages,
// checkpoints only on request, every log page kept on disk, and no
// background sweep — each experiment demands or sweeps partitions
// itself.
func restartConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.PartitionSize = 16 << 10
	cfg.LogPageSize = 2 << 10
	cfg.UpdateThreshold = 1 << 30
	cfg.LogWindowPages = 1 << 20
	cfg.StableBytes = 256 << 20
	cfg.BackgroundRecovery = false
	return cfg
}

// fixture is the crashed database the restart experiments recover: the
// hardware, the track map standing in for the catalog, and the
// partition list. Each restart attaches the next generation to it, as
// often as the caller likes.
type fixture struct {
	hw     *core.Hardware
	cfg    core.Config
	tracks map[addr.PartitionID]simdisk.TrackLoc
	pids   []addr.PartitionID
}

// crashedFixture builds the stable state the restart experiments
// recover, once, and crashes it: recsPerPart inserts into each of
// nParts partitions, a checkpoint of every partition, then a quarter as
// many post-checkpoint updates, so recovering a partition reads both
// its image and, once they fill a page, log pages. base, if not nil, is
// given the same database: every record applied and logged through
// base.Commit, and a full checkpoint between the inserts and the
// updates. beforeCrash, if not nil, runs against the live generation
// just before it stops.
func crashedFixture(cfg core.Config, nParts, recsPerPart int, base *baseline.Engine, beforeCrash func(*harness, []addr.PartitionID) error) (*fixture, error) {
	hw, err := core.NewHardware(cfg)
	if err != nil {
		return nil, err
	}
	f := &fixture{hw: hw, cfg: cfg, tracks: map[addr.PartitionID]simdisk.TrackLoc{}, pids: make([]addr.PartitionID, nParts)}
	for i := range f.pids {
		f.pids[i] = addr.PartitionID{Segment: 2, Part: addr.PartitionNum(i)}
	}
	h, err := attach(hw, cfg, f.tracks, f.pids)
	if err != nil {
		return nil, err
	}
	h.ensureParts(2, nParts)
	h.m.Start()
	defer h.m.Stop() // the crash
	if base != nil {
		base.Store().EnsureSegment(2)
		for _, pid := range f.pids {
			if _, err := base.Store().AllocPartitionAt(pid); err != nil {
				return nil, err
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	txnID := uint64(1)
	inject := func(tag wal.Tag, n int) error {
		for _, pid := range f.pids {
			recs := make([]wal.Record, 0, n)
			for i := 0; i < n; i++ {
				data := make([]byte, 64)
				rng.Read(data)
				recs = append(recs, wal.Record{Tag: tag, PID: pid, Slot: addr.Slot(i), Data: data})
			}
			if err := h.m.InjectCommitted(txnID, recs); err != nil {
				return err
			}
			txnID++
			if base != nil {
				// After InjectCommitted, which stamps each record's Txn:
				// the baseline logs the records the core logged.
				bp, err := base.Store().Partition(pid)
				if err != nil {
					return err
				}
				for i := range recs {
					if err := core.ApplyRecord(bp, &recs[i]); err != nil {
						return err
					}
				}
				if err := base.Commit(recs); err != nil {
					return err
				}
			}
		}
		h.m.WaitIdle()
		return nil
	}
	if err := inject(wal.TagRelInsert, recsPerPart); err != nil {
		return nil, err
	}
	for _, pid := range f.pids {
		h.m.RequestCheckpoint(pid)
	}
	h.m.WaitIdle()
	if base != nil {
		if err := base.Checkpoint(); err != nil {
			return nil, err
		}
	}
	if err := inject(wal.TagRelUpdate, recsPerPart/4); err != nil {
		return nil, err
	}
	if beforeCrash != nil {
		if err := beforeCrash(h, f.pids); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// restart attaches the next generation over the crashed state with
// workers recovery workers (0: one per CPU), runs the §2.5 restart, and
// installs on-demand recovery: from here store.Partition is the way in.
func (f *fixture) restart(workers int) (*harness, error) {
	cfg := f.cfg
	cfg.RecoveryWorkers = workers
	h, err := attach(f.hw, cfg, f.tracks, f.pids)
	if err != nil {
		return nil, err
	}
	if _, err := h.m.Restart(); err != nil {
		return nil, err
	}
	h.m.Resume()
	return h, nil
}

// demandAll restarts the crashed state and demands every partition in
// catalog order, as a transaction that needs the whole database would.
// It returns the simulated disk microseconds until the first hot
// partitions are resident and until all of them are.
func (f *fixture) demandAll(hot int) (hotUS, fullUS int64, err error) {
	h, err := f.restart(0)
	if err != nil {
		return 0, 0, err
	}
	defer h.m.Stop()
	start := h.diskUS()
	for part := range f.pids {
		if err := h.recover(part); err != nil {
			return 0, 0, err
		}
		if part+1 == hot {
			hotUS = h.diskUS() - start
		}
	}
	return hotUS, h.diskUS() - start, nil
}

// sweepOnce restarts the crashed state with w recovery workers, runs one
// synchronous sweep (in catalog order if asked) and returns the stopped
// generation with the simulated microseconds the sweep was charged:
// disk busy time plus recovery-CPU time.
func (f *fixture) sweepOnce(w int, catalogOrder bool) (h *harness, chargedUS, hostMS float64, err error) {
	if h, err = f.restart(w); err != nil {
		return nil, 0, 0, err
	}
	defer h.m.Stop()
	disk, instr := h.diskUS(), h.m.Metrics().SimRecoveryInstr.Value()
	hostStart := time.Now()
	h.m.Sweep(catalogOrder)
	hostMS = float64(time.Since(hostStart).Microseconds()) / 1e3
	disk, instr = h.diskUS()-disk, h.m.Metrics().SimRecoveryInstr.Value()-instr
	for _, pid := range f.pids {
		if !h.store.Resident(pid) {
			return nil, 0, 0, fmt.Errorf("experiments: %d-worker sweep left %v unrecovered", w, pid)
		}
	}
	return h, float64(disk) + cpuSeconds(instr, f.cfg.Cost.PRecovery)*1e6, hostMS, nil
}

func sweepScalingOne(nParts int, workerCounts []int, recsPerPart int) ([]SweepScalingPoint, error) {
	cfg := restartConfig()
	// The trace read below: about 4 events of up to 32 B per partition.
	cfg.FlightRecorderBytes = 4 * 32 * nParts
	f, err := crashedFixture(cfg, nParts, recsPerPart, nil, nil)
	if err != nil {
		return nil, err
	}
	// Sweep the same stable state once per worker count.
	var out []SweepScalingPoint
	for _, w := range workerCounts {
		h, totalUS, hostMS, err := f.sweepOnce(w, false)
		if err != nil {
			return nil, err
		}
		// Critical path: the most-loaded worker's share of the total
		// charged cost, from the per-worker trace events.
		var maxParts, total uint64
		for _, e := range h.m.TraceEvents() {
			if e.Kind == trace.KindSweepWorkerEnd {
				total += e.Arg2
				if e.Arg2 > maxParts {
					maxParts = e.Arg2
				}
			}
		}
		if total != uint64(nParts) {
			return nil, fmt.Errorf("experiments: sweep workers recovered %d of %d partitions", total, nParts)
		}
		simUS := totalUS * float64(maxParts) / float64(total)
		pt := SweepScalingPoint{
			Partitions: nParts,
			Workers:    w,
			SweepMS:    simUS / 1e3,
			HostMS:     hostMS,
			Errors:     h.m.Metrics().RecoverySweepErrors.Value(),
		}
		if simUS > 0 {
			pt.PartsPerSec = float64(nParts) / (simUS / 1e6)
		}
		out = append(out, pt)
	}
	return out, nil
}
