package main

import (
	"fmt"
	"log"

	"mmdb"
	"mmdb/internal/metrics"
)

// crashCycle runs the workload metrics and trace share against a real
// DB instance: inserts, update churn that trips per-partition
// checkpoints, a crash, and a two-phase recovery whose count demands
// every partition. beforeCrash sees the idle pre-crash instance. It
// returns the recovered instance, which the caller closes, and the
// rows it counted, or an error unless that count is every row it
// inserted.
func crashCycle(payload string, flightRecorderBytes int, beforeCrash func(*mmdb.DB)) (*mmdb.DB, int, error) {
	cfg := mmdb.DefaultConfig()
	cfg.LogPageSize = 2 << 10
	cfg.UpdateThreshold = 150
	cfg.LogWindowPages = 64
	cfg.GracePages = 8
	cfg.FlightRecorderBytes = flightRecorderBytes
	db, err := mmdb.Open(cfg)
	if err != nil {
		return nil, 0, err
	}
	rel, err := db.CreateRelation("bench", mmdb.Schema{
		{Name: "k", Type: mmdb.Int64},
		{Name: "v", Type: mmdb.String},
	})
	if err != nil {
		return nil, 0, err
	}
	rows := make([]mmdb.RowID, 0, 800)
	for batch := 0; batch < n(8); batch++ {
		tx := db.Begin()
		for i := 0; i < 100; i++ {
			row, err := tx.Insert(rel, mmdb.Tuple{int64(batch*100 + i), payload})
			if err != nil {
				return nil, 0, err
			}
			rows = append(rows, row)
		}
		if err := tx.Commit(); err != nil {
			return nil, 0, err
		}
	}
	for round := 0; round < n(6); round++ {
		tx := db.Begin()
		for i := 0; i < 200; i++ {
			if err := tx.Update(rel, rows[i%len(rows)], map[string]any{"k": int64(round*1000 + i)}); err != nil {
				return nil, 0, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, 0, err
		}
	}
	db.WaitIdle()
	beforeCrash(db)

	hw := db.Crash()
	db2, err := mmdb.Recover(hw, cfg)
	if err != nil {
		return nil, 0, err
	}
	rel2, err := db2.GetRelation("bench")
	if err != nil {
		db2.Close()
		return nil, 0, err
	}
	tx := db2.Begin()
	count, err := tx.Count(rel2) // demands every partition through §2.5 recovery
	if err != nil {
		db2.Close()
		return nil, 0, err
	}
	if err := tx.Abort(); err != nil {
		log.Printf("paperbench: abort: %v", err)
	}
	if count != len(rows) {
		db2.Close()
		return nil, 0, fmt.Errorf("recovered %d rows, inserted %d", count, len(rows))
	}
	db2.WaitIdle()
	return db2, count, nil
}

// metricsReport prints the metrics table of the crash cycle's pre-crash
// and recovered instances. It is the measured counterpart of the
// analytic tables: the latency histograms here come from the actual
// code paths (SLB writes, bin page flushes, checkpoint transactions,
// recovery transactions).
func metricsReport() error {
	db, count, err := crashCycle("metrics workload payload", 0, func(db *mmdb.DB) {
		fmt.Println("Metrics — pre-crash instance (workload: inserts + update churn)")
		fmt.Print(metrics.FormatTable(db.Metrics()))
	})
	if err != nil {
		return err
	}
	defer db.Close()
	fmt.Println()
	fmt.Printf("Metrics — recovered instance (%d rows intact after crash)\n", count)
	fmt.Print(metrics.FormatTable(db.Metrics()))
	return nil
}
