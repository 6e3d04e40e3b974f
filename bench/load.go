package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"mmdb"
	"mmdb/internal/addr"
)

// sizes fixes every count of a run. Two instances exist: fullSizes (what
// BENCHMARK.json measures) and quickSizes (what `go test` exercises).
type sizes struct {
	accounts, tellers, branches int
	bulkRows                    int

	setups     int            // timed set-ups of an untraced run; setup_s is their median
	minCycles  int            // cycles run even when -seconds is already spent
	maxCycles  int            // cap on cycles, whatever -seconds says
	roundTxns  map[string]int // transactions per round, by workload
	postTxns   int            // fixed transactions after each recovery, the first included
	probeIters int            // calls per layer-probe batch
}

const (
	padBytes  = 4000 // bulk's pad column: 11 rows to a 48 KB partition
	loadBatch = 100  // rows per loading transaction
)

func fullSizes() sizes {
	return sizes{
		accounts: 10000, tellers: 1000, branches: 100,
		bulkRows: 5000,
		setups:   3, minCycles: 60, maxCycles: 1 << 20,
		roundTxns:  map[string]int{wDCInproc: 2500, wDCWire: 2500, wReadMix: 1500, wUpdateCrash: 3500},
		postTxns:   100,
		probeIters: 200,
	}
}

func quickSizes() sizes {
	return sizes{
		accounts: 500, tellers: 50, branches: 10,
		bulkRows: 600,
		setups:   1, minCycles: 2, maxCycles: 2,
		roundTxns:  map[string]int{wDCInproc: 150, wDCWire: 150, wReadMix: 200, wUpdateCrash: 400},
		postTxns:   10,
		probeIters: 20,
	}
}

// benchConfig is mmdb.DefaultConfig plus storage sizing: simulated disks and
// archive stay in process memory (ArchiveDir empty), no fault injector, no
// engine tracing. The group-commit epoch seals eagerly.
func benchConfig(workload string) mmdb.Config {
	cfg := mmdb.DefaultConfig()
	cfg.StableBytes = 64 << 20
	cfg.HeatSnapshotBytes = 64 << 10
	cfg.GroupCommitInterval = 0
	cfg.RecoveryWorkers = callers() - 1
	if cfg.RecoveryWorkers < 1 {
		cfg.RecoveryWorkers = 1
	}
	if workload == wUpdateCrash {
		// Small enough that the window rolls (age checkpoints, archive
		// appends) several times per run.
		cfg.LogWindowPages = 256
		cfg.GracePages = 32
	}
	return cfg
}

// callers is the number of runnable goroutines the harness may ask for.
func callers() int { return runtime.GOMAXPROCS(0) }

var (
	idBalSchema   = mmdb.Schema{{Name: "id", Type: mmdb.Int64}, {Name: "bal", Type: mmdb.Float64}}
	accountSchema = mmdb.Schema{{Name: "id", Type: mmdb.Int64}, {Name: "bal", Type: mmdb.Float64}, {Name: "seq", Type: mmdb.Int64}}
	historySchema = mmdb.Schema{{Name: "account", Type: mmdb.Int64}, {Name: "teller", Type: mmdb.Int64}, {Name: "branch", Type: mmdb.Int64}, {Name: "delta", Type: mmdb.Float64}}
	bulkSchema    = mmdb.Schema{{Name: "id", Type: mmdb.Int64}, {Name: "bal", Type: mmdb.Float64}, {Name: "grp", Type: mmdb.Int64}, {Name: "pad", Type: mmdb.String}}
)

// dataset is the loaded common data set: for each table, row id -> stored
// address. Addresses are stable across crashes, so they stay valid for the
// whole run.
type dataset struct {
	accIDs, telIDs, brIDs, bulkIDs []mmdb.RowID
}

// loadDataset builds the common data set every workload starts from:
// the mmdbload debit/credit schema (linhash pk indexes, as
// server.debitCredit requires) plus the mostly-cold bulk relation.
func loadDataset(db *mmdb.DB, sz sizes) (*dataset, error) {
	ds := &dataset{
		accIDs:  make([]mmdb.RowID, sz.accounts),
		telIDs:  make([]mmdb.RowID, sz.tellers),
		brIDs:   make([]mmdb.RowID, sz.branches),
		bulkIDs: make([]mmdb.RowID, sz.bulkRows),
	}
	small := []struct {
		name   string
		schema mmdb.Schema
		ids    []mmdb.RowID
	}{
		{"accounts", accountSchema, ds.accIDs},
		{"tellers", idBalSchema, ds.telIDs},
		{"branches", idBalSchema, ds.brIDs},
	}
	for _, s := range small {
		rel, err := db.CreateRelation(s.name, s.schema)
		if err != nil {
			return nil, err
		}
		if _, err := db.CreateIndex(rel, "pk", "id", mmdb.KindLinHash, 16); err != nil {
			return nil, err
		}
		withSeq := len(s.schema) == 3
		err = loadRows(db, rel, loadBatch, func(i int) mmdb.Tuple {
			if withSeq {
				return mmdb.Tuple{int64(i), 0.0, int64(0)}
			}
			return mmdb.Tuple{int64(i), 0.0}
		}, s.ids)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", s.name, err)
		}
	}
	if _, err := db.CreateRelation("history", historySchema); err != nil {
		return nil, err
	}

	bulk, err := db.CreateRelation("bulk", bulkSchema)
	if err != nil {
		return nil, err
	}
	if _, err := db.CreateIndex(bulk, "pk", "id", mmdb.KindLinHash, 16); err != nil {
		return nil, err
	}
	if _, err := db.CreateIndex(bulk, "by_grp", "grp", mmdb.KindTTree, 16); err != nil {
		return nil, err
	}
	pad := strings.Repeat("x", padBytes)
	err = loadRows(db, bulk, loadBatch, func(i int) mmdb.Tuple {
		return mmdb.Tuple{int64(i), 0.0, int64(grpOf(i, sz.bulkRows)), pad}
	}, ds.bulkIDs)
	if err != nil {
		return nil, fmt.Errorf("load bulk: %w", err)
	}
	return ds, nil
}

// loadRows inserts len(ids) rows, batch per transaction, recording where
// each landed.
func loadRows(db *mmdb.DB, rel *mmdb.Relation, batch int, row func(i int) mmdb.Tuple, ids []mmdb.RowID) error {
	n := len(ids)
	for lo := 0; lo < n; lo += batch {
		tx := db.Begin()
		for i := lo; i < lo+batch && i < n; i++ {
			id, err := tx.Insert(rel, row(i))
			if err != nil {
				_ = tx.Abort()
				return err
			}
			ids[i] = id
		}
		if err := tx.Commit(); err != nil {
			_ = tx.Abort()
			return err
		}
	}
	return nil
}

// checkpointAll checkpoints every partition that has log records, so the
// measured cycles start from a steady state — every partition restarts from
// its image plus a short log — and not from the one-off state just after a
// load, when restart replays the whole load from the log and cold partitions
// age out of the window mid-run. Data and index partitions go first, in
// address order; each of their checkpoints rewrites a catalog descriptor, so
// the catalog partitions go last. (In map order the catalogs' own
// checkpoints landed at a random point, and the log tail Restart had to
// replay for them — 0.4 to 1.3 ms of restart_first_txn_ms — was a property of
// the process, not of the code.)
func checkpointAll(db *mmdb.DB) {
	db.WaitIdle()
	bins := db.Manager().BinStates()
	sort.Slice(bins, func(i, j int) bool { return bins[i].PID.Less(bins[j].PID) })
	isCatalog := func(pid addr.PartitionID) bool {
		return pid.Segment == addr.SegRelationCatalog || pid.Segment == addr.SegIndexCatalog
	}
	for _, catalogs := range []bool{false, true} {
		for _, b := range bins {
			if isCatalog(b.PID) == catalogs {
				db.Manager().RequestCheckpoint(b.PID)
			}
		}
		db.WaitIdle()
	}
}

// maxExtraSetups bounds the set-ups repeated because the last one was wedged.
const maxExtraSetups = 3

// wedged reports a checkpoint request the engine lost. finishCheckpoint
// re-triggers a partition that took UpdateThreshold more updates while its
// checkpoint ran, the queue drops the request as a duplicate of the one still
// finishing, and the bin stays "pending" for good — the flag lives in stable
// memory, so across crashes too: no later trigger, by count, by age or by
// RequestCheckpoint, gets past it. The loader can do that to a hot index
// partition when a neighbour starves the checkpointer (one set-up in four
// under a synthetic CPU hog, none seen on a quiet machine); every restart
// then replays the partition's whole load, ~700 log pages, and
// restart_first_txn_ms reads 18 ms where it should read 1. After WaitIdle a
// bin still pending is such a request.
func wedged(db *mmdb.DB) bool {
	for _, b := range db.Manager().BinStates() {
		if b.CkptPending {
			return true
		}
	}
	return false
}

// setup is the timed set-up: Open + schema + load + indexes + a checkpoint of
// every partition + WaitIdle.
func setup(workload string, sz sizes) (*mmdb.DB, *dataset, time.Duration, error) {
	start := time.Now()
	db, err := mmdb.Open(benchConfig(workload))
	if err != nil {
		return nil, nil, 0, err
	}
	ds, err := loadDataset(db, sz)
	if err != nil {
		_ = db.Close()
		return nil, nil, 0, err
	}
	checkpointAll(db)
	return db, ds, time.Since(start), nil
}
