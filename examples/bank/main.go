// Bank: the debit/credit workload of Gray (the paper's §3.2 reference —
// four log records per transaction) run by concurrent tellers, with a
// crash mid-stream. The invariant checked across the crash: money is
// conserved — the sum of all balances equals the initial total plus the
// net of committed transfers, and no uncommitted transfer survives.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"

	"mmdb"
)

const (
	nAccounts = 500
	nTellers  = 4
	txnsEach  = 150
)

func main() {
	cfg := mmdb.DefaultConfig()
	cfg.UpdateThreshold = 400 // make checkpoints happen mid-run
	db, err := mmdb.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	accounts, err := db.CreateRelation("accounts", mmdb.Schema{
		{Name: "id", Type: mmdb.Int64},
		{Name: "balance", Type: mmdb.Float64},
	})
	if err != nil {
		log.Fatal(err)
	}

	ids := make([]mmdb.RowID, nAccounts)
	seed := db.Begin()
	for i := range ids {
		ids[i], err = seed.Insert(accounts, mmdb.Tuple{int64(i), 1000.0})
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		log.Fatal(err)
	}
	initialTotal := float64(nAccounts) * 1000.0

	// Concurrent tellers transfer money between random accounts.
	// Deadlocks abort the transaction; the teller retries.
	var committed atomic.Int64
	var aborted atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < nTellers; t++ {
		wg.Add(1)
		go func(seedv int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seedv))
			for i := 0; i < txnsEach; i++ {
				from, to := rng.Intn(nAccounts), rng.Intn(nAccounts)
				if from == to {
					continue
				}
				amount := float64(rng.Intn(100) + 1)
				tx := db.Begin()
				if err := transfer(tx, accounts, ids[from], ids[to], amount); err != nil {
					_ = tx.Abort()
					aborted.Add(1)
					continue
				}
				if err := tx.Commit(); err != nil {
					_ = tx.Abort()
					aborted.Add(1)
					continue
				}
				committed.Add(1)
			}
		}(int64(t) + 1)
	}
	wg.Wait()
	fmt.Printf("tellers done: %d committed, %d aborted (deadlock retries)\n",
		committed.Load(), aborted.Load())

	// Crash while a straggler transaction is still open: it must not
	// survive recovery.
	straggler := db.Begin()
	if err := transfer(straggler, accounts, ids[0], ids[1], 1e6); err != nil {
		log.Fatal(err)
	}
	db.WaitIdle()
	s := db.Metrics()
	fmt.Printf("before crash: %d checkpoints completed, %d log pages flushed\n",
		s.Subsystem("checkpoint").Counter("completed"), s.Subsystem("log").Counter("pages_flushed"))
	hw := db.Crash()
	fmt.Println("crash mid-flight (one transfer uncommitted)")

	db2, err := mmdb.Recover(hw, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	accounts2, err := db2.GetRelation("accounts")
	if err != nil {
		log.Fatal(err)
	}
	tx := db2.Begin()
	defer tx.Abort()
	var total float64
	if err := tx.Scan(accounts2, func(id mmdb.RowID, tup mmdb.Tuple) bool {
		total += tup[1].(float64)
		return true
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sum of balances after recovery: %.2f (initial %.2f)\n", total, initialTotal)
	if total != initialTotal {
		log.Fatalf("MONEY NOT CONSERVED: %.2f != %.2f", total, initialTotal)
	}
	fmt.Println("invariant holds: committed transfers preserved, uncommitted one vanished")
}

// transfer moves amount between two accounts inside tx.
func transfer(tx *mmdb.Txn, rel *mmdb.Relation, from, to mmdb.RowID, amount float64) error {
	f, err := tx.Get(rel, from)
	if err != nil {
		return err
	}
	t, err := tx.Get(rel, to)
	if err != nil {
		return err
	}
	if err := tx.Update(rel, from, map[string]any{"balance": f[1].(float64) - amount}); err != nil {
		return err
	}
	return tx.Update(rel, to, map[string]any{"balance": t[1].(float64) + amount})
}
