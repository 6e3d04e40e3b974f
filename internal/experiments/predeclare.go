package experiments

import (
	"math/rand"
	"sort"

	"mmdb/internal/addr"
	"mmdb/internal/core"
	"mmdb/internal/lock"
	"mmdb/internal/mm"
	"mmdb/internal/simdisk"
	"mmdb/internal/txn"
	"mmdb/internal/wal"
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
	build := func() (*core.Hardware, map[addr.PartitionID]simdisk.TrackLoc, error) {
		cfg := predeclareCfg()
		hw, err := core.NewHardware(cfg)
		if err != nil {
			return nil, nil, err
		}
		tracks := map[addr.PartitionID]simdisk.TrackLoc{}
		m, store, err := attachPredeclare(hw, cfg, tracks)
		if err != nil {
			return nil, nil, err
		}
		store.EnsureSegment(2)
		for i := 0; i < nParts; i++ {
			if _, err := store.AllocPartitionAt(addr.PartitionID{Segment: 2, Part: addr.PartitionNum(i)}); err != nil {
				return nil, nil, err
			}
		}
		m.Start()
		rng := rand.New(rand.NewSource(17))
		id := uint64(1)
		for part := 0; part < nParts; part++ {
			pid := addr.PartitionID{Segment: 2, Part: addr.PartitionNum(part)}
			var recs []wal.Record
			for i := 0; i < recsPerPart; i++ {
				data := make([]byte, 48)
				rng.Read(data)
				recs = append(recs, wal.Record{Tag: wal.TagRelInsert, PID: pid, Slot: addr.Slot(i), Data: data})
			}
			p, _ := store.Partition(pid)
			for i := range recs {
				if err := applyForBuild(p, &recs[i]); err != nil {
					return nil, nil, err
				}
			}
			if err := m.InjectCommitted(id, recs); err != nil {
				return nil, nil, err
			}
			id++
		}
		m.WaitIdle()
		for part := 0; part < nParts; part++ {
			m.RequestCheckpoint(addr.PartitionID{Segment: 2, Part: addr.PartitionNum(part)})
		}
		m.WaitIdle()
		m.Stop() // crash
		return hw, tracks, nil
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

	// --- Method 1: predeclare ---
	hw, tracks, err := build()
	if err != nil {
		return nil, err
	}
	cfg := predeclareCfg()
	m2, store2, err := attachPredeclare(hw, cfg, tracks)
	if err != nil {
		return nil, err
	}
	if _, err := m2.Restart(); err != nil {
		return nil, err
	}
	m2.Resume() // demand is the way in: store.Partition runs the recovery transaction
	recover := func(store *mm.Store, part int) error {
		_, err := store.Partition(addr.PartitionID{Segment: 2, Part: addr.PartitionNum(part)})
		return err
	}
	start := hw.Meter.Snapshot()
	for part := 0; part < nParts; part++ {
		if err := recover(store2, part); err != nil {
			return nil, err
		}
	}
	d := hw.Meter.Snapshot().Sub(start)
	// Every transaction waits for the full restore; the first one's
	// latency is the whole reload (transactions themselves are
	// memory-speed and contribute ~nothing in disk time).
	res.PredeclareFirstUS = d.CkptDiskMicros + d.LogDiskMicros
	res.PredeclareTotalUS = res.PredeclareFirstUS
	m2.Stop()

	// --- Method 2: on demand ---
	hw, tracks, err = build()
	if err != nil {
		return nil, err
	}
	m3, store3, err := attachPredeclare(hw, cfg, tracks)
	if err != nil {
		return nil, err
	}
	if _, err := m3.Restart(); err != nil {
		return nil, err
	}
	m3.Resume()
	var latencies []int64
	total := int64(0)
	for _, parts := range touches {
		before := hw.Meter.Snapshot()
		for _, part := range parts {
			if err := recover(store3, part); err != nil {
				return nil, err
			}
		}
		d := hw.Meter.Snapshot().Sub(before)
		lat := d.CkptDiskMicros + d.LogDiskMicros
		latencies = append(latencies, lat)
		total += lat
	}
	m3.Stop()
	res.DemandFirstUS = latencies[0]
	res.DemandTotalUS = total
	sorted := append([]int64(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	res.DemandP50US = sorted[len(sorted)/2]
	res.DemandMaxUS = sorted[len(sorted)-1]
	return res, nil
}

func predeclareCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.PartitionSize = 16 << 10
	cfg.LogPageSize = 2 << 10
	cfg.UpdateThreshold = 1 << 30
	cfg.LogWindowPages = 1 << 20
	cfg.StableBytes = 256 << 20
	cfg.BackgroundRecovery = false
	return cfg
}

func attachPredeclare(hw *core.Hardware, cfg core.Config, tracks map[addr.PartitionID]simdisk.TrackLoc) (*core.Manager, *mm.Store, error) {
	store := mm.NewStore(cfg.PartitionSize)
	m, err := core.New(hw, cfg, store, lock.NewManager())
	if err != nil {
		return nil, nil, err
	}
	m.SetCallbacks(core.Callbacks{
		OwnerRel: func(pid addr.PartitionID) (uint64, bool) { return 1, true },
		InstallCkpt: func(t *txn.Txn, pid addr.PartitionID, track simdisk.TrackLoc) (simdisk.TrackLoc, error) {
			old, ok := tracks[pid]
			if !ok {
				old = simdisk.NilTrack
			}
			tracks[pid] = track
			return old, nil
		},
		Locate: func(pid addr.PartitionID) (simdisk.TrackLoc, error) {
			if tr, ok := tracks[pid]; ok {
				return tr, nil
			}
			return simdisk.NilTrack, nil
		},
		AllPartitions: func() ([]addr.PartitionID, error) { return nil, nil },
	})
	for _, tr := range tracks {
		m.MarkTrackUsed(tr)
	}
	return m, store, nil
}

// applyForBuild applies a record to the live store during workload
// construction (core.ApplyRecord for an insert-only build).
func applyForBuild(p *mm.Partition, r *wal.Record) error {
	return p.InsertAt(r.Slot, r.Data)
}
