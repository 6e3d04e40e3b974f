package experiments

import (
	"math/rand"
	"sort"

	"mmdb/internal/addr"
	"mmdb/internal/core"
	"mmdb/internal/mm"
	"mmdb/internal/simdisk"
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
		h, err := attach(hw, cfg, tracks, nil)
		if err != nil {
			return nil, nil, err
		}
		h.ensureParts(2, nParts)
		m, store := h.m, h.store
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
	h2, err := restart(hw, cfg, tracks, nil)
	if err != nil {
		return nil, err
	}
	start := h2.diskUS()
	for part := 0; part < nParts; part++ {
		if err := h2.recover(part); err != nil {
			return nil, err
		}
	}
	// Every transaction waits for the full restore; the first one's
	// latency is the whole reload (transactions themselves are
	// memory-speed and contribute ~nothing in disk time).
	res.PredeclareFirstUS = h2.diskUS() - start
	res.PredeclareTotalUS = res.PredeclareFirstUS
	h2.m.Stop()

	// --- Method 2: on demand ---
	hw, tracks, err = build()
	if err != nil {
		return nil, err
	}
	h3, err := restart(hw, cfg, tracks, nil)
	if err != nil {
		return nil, err
	}
	var latencies []int64
	total := int64(0)
	for _, parts := range touches {
		before := h3.diskUS()
		for _, part := range parts {
			if err := h3.recover(part); err != nil {
				return nil, err
			}
		}
		lat := h3.diskUS() - before
		latencies = append(latencies, lat)
		total += lat
	}
	h3.m.Stop()
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

// applyForBuild applies a record to the live store during workload
// construction (core.ApplyRecord for an insert-only build).
func applyForBuild(p *mm.Partition, r *wal.Record) error {
	return p.InsertAt(r.Slot, r.Data)
}
