// Command crashdemo narrates one full life cycle of the recovery
// architecture: logging into the Stable Log Buffer, sorting into
// partition bins in the Stable Log Tail, page flushes to the duplexed
// log disks, update-count and age checkpoints, the crash, and two-phase
// recovery — printing the internal counters at each step.
package main

import (
	"fmt"
	"log"

	"mmdb"
	"mmdb/internal/metrics"
)

func stats(label string, db *mmdb.DB) {
	s := db.Metrics()
	lg, ck := s.Subsystem("log"), s.Subsystem("checkpoint")
	fmt.Printf("  [%s] records sorted %d | pages flushed %d | ckpt by-count %d by-age %d done %d | archived %d\n",
		label, lg.Counter("records_sorted"), lg.Counter("pages_flushed"),
		ck.Counter("triggered_by_update_count"), ck.Counter("triggered_by_age"), ck.Counter("completed"),
		lg.Counter("pages_archived"))
}

func main() {
	cfg := mmdb.DefaultConfig()
	cfg.LogPageSize = 2 << 10
	cfg.UpdateThreshold = 500
	cfg.LogWindowPages = 64
	cfg.GracePages = 8
	db, err := mmdb.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== phase 1: normal transaction processing ==")
	rel, err := db.CreateRelation("events", mmdb.Schema{
		{Name: "seq", Type: mmdb.Int64},
		{Name: "payload", Type: mmdb.String},
	})
	if err != nil {
		log.Fatal(err)
	}
	var rows []mmdb.RowID
	for batch := 0; batch < 8; batch++ {
		tx := db.Begin()
		for i := 0; i < 100; i++ {
			row, err := tx.Insert(rel, mmdb.Tuple{int64(batch*100 + i), "event payload data ..."})
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, row)
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
		db.WaitIdle()
		stats(fmt.Sprintf("batch %d", batch), db)
	}

	fmt.Println("== phase 2: update churn triggers per-partition checkpoints ==")
	for round := 0; round < 6; round++ {
		tx := db.Begin()
		for i := 0; i < 200; i++ {
			if err := tx.Update(rel, rows[i%len(rows)], map[string]any{"seq": int64(round*1000 + i)}); err != nil {
				log.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
		db.WaitIdle()
	}
	stats("after churn", db)

	fmt.Println("== phase 3: crash ==")
	hw := db.Crash()
	fmt.Println("  volatile memory discarded; stable memory + log disks + checkpoint disks survive")

	fmt.Println("== phase 4: recovery ==")
	db2, err := mmdb.Recover(hw, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	fmt.Println("  catalogs restored from the well-known root; transactions may run now")
	rel2, err := db2.GetRelation("events")
	if err != nil {
		log.Fatal(err)
	}
	tx := db2.Begin()
	n, err := tx.Count(rel2) // demands every partition of the relation
	if err != nil {
		log.Fatal(err)
	}
	_ = tx.Abort()
	fmt.Printf("  %d rows intact\n", n)
	stats("post-recovery", db2)

	fmt.Println("== metrics: recovered instance ==")
	fmt.Print(metrics.FormatTable(db2.Metrics()))
}
