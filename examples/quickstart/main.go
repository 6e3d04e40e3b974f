// Quickstart: create a memory-resident database, write some data,
// crash it, and recover — demonstrating instant commit and on-demand
// partition recovery.
package main

import (
	"fmt"
	"log"

	"mmdb"
)

func main() {
	cfg := mmdb.DefaultConfig()
	db, err := mmdb.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// A relation lives in its own segment of fixed-size partitions.
	accounts, err := db.CreateRelation("accounts", mmdb.Schema{
		{Name: "id", Type: mmdb.Int64},
		{Name: "balance", Type: mmdb.Float64},
		{Name: "owner", Type: mmdb.String},
	})
	if err != nil {
		log.Fatal(err)
	}
	// A T-Tree index on the id column (index nodes are partition-
	// resident entities, logged and recovered like tuples).
	byID, err := db.CreateIndex(accounts, "by_id", "id", mmdb.KindTTree, 16)
	if err != nil {
		log.Fatal(err)
	}

	// Transactions commit instantly: REDO records land in stable
	// memory, no disk force.
	tx := db.Begin()
	for i := int64(0); i < 100; i++ {
		if _, err := tx.Insert(accounts, mmdb.Tuple{i, 100.0 * float64(i), fmt.Sprintf("owner-%d", i)}); err != nil {
			log.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("inserted 100 accounts, committed instantly")

	// Point the finger at the power supply.
	db.WaitIdle()
	hw := db.Crash()
	fmt.Println("crash! volatile memory gone; stable memory and disks survive")

	// Recovery restores the catalogs first; transactions can run
	// immediately, demanding partitions as they touch them.
	db2, err := mmdb.Recover(hw, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	accounts2, err := db2.GetRelation("accounts")
	if err != nil {
		log.Fatal(err)
	}
	byID2 := accounts2.Index("by_id")
	if byID2 == nil {
		log.Fatal("index lost")
	}
	_ = byID

	tx2 := db2.Begin()
	defer tx2.Abort()
	var found mmdb.Tuple
	err = tx2.IndexLookup(byID2, int64(42), func(id mmdb.RowID, tup mmdb.Tuple) bool {
		found = tup
		return false
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered account 42 via T-Tree: %v\n", found)

	n, err := tx2.Count(accounts2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("all %d accounts intact after recovery\n", n)
	rs := db2.Metrics().Subsystem("restart")
	fmt.Printf("recovery stats: %d partitions recovered, %d log pages replayed\n",
		rs.Counter("partitions_recovered"), rs.Counter("log_pages_read"))

	// Metrics carry the latency distributions behind those counters
	// (this is the README's Observability example).
	db2.WaitIdle()
	s := db2.Metrics()
	if ck := s.Subsystem("checkpoint"); ck != nil {
		fmt.Println("checkpoints:", ck.Counter("completed"))
		if h := ck.Histogram("duration"); h != nil {
			fmt.Printf("ckpt p95: %.0fns over %d ckpts\n", h.P95, h.Count)
		}
	}
	if rs := s.Subsystem("restart"); rs != nil {
		if h := rs.Histogram("partition_recovery"); h != nil && h.Count > 0 {
			fmt.Printf("per-partition recovery p95: %.0fns over %d partitions\n", h.P95, h.Count)
		}
	}
}
