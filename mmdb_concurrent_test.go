package mmdb

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"mmdb/internal/heap"
)

// TestCheckpointsUnderConcurrentWriters hammers a relation from several
// goroutines while the low update threshold keeps checkpoint
// transactions running concurrently (taking relation read locks against
// the writers' IX locks, fencing bins mid-stream). After the storm: a
// full consistency audit, then a crash, then exact model equivalence.
func TestCheckpointsUnderConcurrentWriters(t *testing.T) {
	cfg := testConfig()
	cfg.UpdateThreshold = 32
	cfg.LogWindowPages = 128
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("hot", acctSchema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(rel, "by_id", "id", KindTTree, 8); err != nil {
		t.Fatal(err)
	}

	// Seed rows that the writers will update.
	const seedRows = 64
	ids := make([]RowID, seedRows)
	seed := db.Begin()
	for i := range ids {
		ids[i], err = seed.Insert(rel, heap.Tuple{int64(i), 0.0, "seed"})
		if err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, seed)

	// Concurrent writers: each owns a disjoint slice of rows (no
	// deadlocks by construction) and records its committed final
	// values.
	const writers = 4
	finals := make([]map[int]float64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		finals[w] = map[int]float64{}
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			lo := w * seedRows / writers
			hi := (w + 1) * seedRows / writers
			for i := 0; i < 150; i++ {
				row := lo + rng.Intn(hi-lo)
				val := float64(w*100000 + i)
				tx := db.Begin()
				if err := tx.Update(rel, ids[row], map[string]any{"balance": val}); err != nil {
					if errors.Is(err, ErrDeadlock) {
						_ = tx.Abort()
						continue
					}
					t.Error(err)
					_ = tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				finals[w][row] = val
			}
		}(w)
	}
	wg.Wait()
	db.WaitIdle()
	if counter(db, "checkpoint", "completed") == 0 {
		t.Fatal("no checkpoints completed under load")
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	// Crash and compare against the writers' records.
	db2 := crashAndRecover(t, db, cfg)
	defer db2.Close()
	rel2, err := db2.GetRelation("hot")
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	tx := db2.Begin()
	defer tx.Abort()
	for w := 0; w < writers; w++ {
		for row, val := range finals[w] {
			got, err := tx.Get(rel2, ids[row])
			if err != nil {
				t.Fatalf("row %d: %v", row, err)
			}
			if got[1].(float64) != val {
				t.Fatalf("row %d = %v, want %v", row, got[1], val)
			}
		}
	}
}

// TestConcurrentReadersDuringCheckpoints verifies reader transactions
// (IS + S locks) interleave with checkpoint transactions' relation read
// locks without distortion.
func TestConcurrentReadersDuringCheckpoints(t *testing.T) {
	cfg := testConfig()
	cfg.UpdateThreshold = 24
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, _ := db.CreateRelation("r", acctSchema)
	var ids []RowID
	seed := db.Begin()
	for i := 0; i < 40; i++ {
		id, err := seed.Insert(rel, heap.Tuple{int64(i), float64(i), "x"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	mustCommit(t, seed)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Readers verify invariant: balance always equals id.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := db.Begin()
				id := ids[rng.Intn(len(ids))]
				tup, err := tx.Get(rel, id)
				if err != nil {
					t.Error(err)
					_ = tx.Abort()
					return
				}
				if tup[1].(float64) != float64(tup[0].(int64)) {
					t.Errorf("invariant broken: %v", tup)
				}
				_ = tx.Abort()
			}
		}(r)
	}
	// A writer keeps the invariant while generating checkpoint load:
	// each update sets both columns together.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 300; i++ {
			row := rng.Intn(len(ids))
			k := int64(1000 + i)
			tx := db.Begin()
			if err := tx.Update(rel, ids[row], map[string]any{"id": k, "balance": float64(k)}); err != nil {
				if errors.Is(err, ErrDeadlock) {
					_ = tx.Abort()
					continue
				}
				t.Error(err)
				_ = tx.Abort()
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()
	wg.Wait()
	db.WaitIdle()
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if counter(db, "checkpoint", "completed") == 0 {
		t.Log("warning: no checkpoints completed during reader/writer storm")
	}
}
