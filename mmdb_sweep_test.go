package mmdb

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mmdb/internal/heap"
)

// TestParallelSweepWithConcurrentDemand races the 4-worker background
// sweep against foreground transactions demanding the same partitions
// in random order. Every row must come back intact, and the recovery
// counter must show exactly one recovery transaction per partition —
// sweep workers and demanders coalesced instead of installing racing
// copies.
func TestParallelSweepWithConcurrentDemand(t *testing.T) {
	cfg := testConfig()
	cfg.RecoveryWorkers = 4
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("accounts", acctSchema)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 300
	ids := make([]RowID, 0, rows)
	balances := make(map[RowID]float64, rows)
	tx := db.Begin()
	for i := 0; i < rows; i++ {
		// Fat owner strings spread the rows across many partitions.
		id, err := tx.Insert(rel, heap.Tuple{int64(i), float64(i) * 1.5, strings.Repeat("x", 120)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		balances[id] = float64(i) * 1.5
		if (i+1)%25 == 0 {
			mustCommit(t, tx)
			tx = db.Begin()
		}
	}
	mustCommit(t, tx)
	db.WaitIdle()

	db2 := crashAndRecover(t, db, cfg)
	defer db2.Close()
	rel2, err := db2.GetRelation("accounts")
	if err != nil {
		t.Fatal(err)
	}

	// Foreground demand, seeded per goroutine, while the sweep runs.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 1)))
			for _, i := range rng.Perm(len(ids)) {
				rtx := db2.Begin()
				tup, err := rtx.Get(rel2, ids[i])
				if err != nil {
					rtx.Abort()
					errs <- fmt.Errorf("reader %d: Get(%v): %w", g, ids[i], err)
					return
				}
				if got := tup[1].(float64); got != balances[ids[i]] {
					errs <- fmt.Errorf("reader %d: %v balance = %v, want %v", g, ids[i], got, balances[ids[i]])
				}
				if err := rtx.Commit(); err != nil {
					errs <- fmt.Errorf("reader %d: commit: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Let the sweep cover whatever demand didn't touch.
	all, err := db2.allPartitions()
	if err != nil {
		t.Fatal(err)
	}
	db2.WaitIdle()
	resident := 0
	for _, pid := range all {
		if db2.store.Resident(pid) {
			resident++
		}
	}
	if resident != len(all) {
		t.Fatalf("sweep restored %d of %d partitions", resident, len(all))
	}
	// One recovery transaction per partition, no matter how many
	// sweep workers and foreground readers demanded it.
	if got := counter(db2, "restart", "partitions_recovered"); got != int64(len(all)) {
		t.Fatalf("PartsRecovered = %d, want %d (one per partition)", got, len(all))
	}
	if got := counter(db2, "restart", "sweep_errors"); got != 0 {
		t.Fatalf("SweepErrors = %d on a clean sweep", got)
	}
}
