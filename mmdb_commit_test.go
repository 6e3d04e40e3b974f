package mmdb

import (
	"sync"
	"testing"

	"mmdb/internal/heap"
)

// A transaction owns its REDO chain from Begin to Commit. These tests
// hold the chain's lifetime to two rules: a chain of a crashed instance
// takes nothing from stable memory, and a committed chain the sorter
// recycles is never written again by its committer.

// TestDeadInstanceTxnCannotLog: after a crash and a recovery, a
// transaction of the dead instance (one that had logged a record, one
// that had not, and one begun on it after the recovery) is refused its
// next write without taking a block from stable memory, and cannot
// commit.
func TestDeadInstanceTxnCannotLog(t *testing.T) {
	cfg := testConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("acct", acctSchema)
	if err != nil {
		t.Fatal(err)
	}
	seed := db.Begin()
	row, err := seed.Insert(rel, heap.Tuple{int64(1), 1.0, "seed"})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, seed)
	logged := db.Begin()
	if _, err := logged.Insert(rel, heap.Tuple{int64(2), 2.0, "in flight"}); err != nil {
		t.Fatal(err)
	}
	idle := db.Begin()

	hw := db.Crash()
	cfg.FaultInjector.ClearCrash()
	db2, err := Recover(hw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	late := db.Begin()
	used := hw.Stable.Used()
	for name, tx := range map[string]*Txn{"logged": logged, "idle": idle, "late": late} {
		if err := tx.Update(rel, row, map[string]any{"balance": 9.0}); err == nil {
			t.Fatalf("%s: a dead instance's transaction logged an update", name)
		}
		if got := hw.Stable.Used(); got != used {
			t.Fatalf("%s: stable memory in use moved from %d to %d", name, used, got)
		}
		if err := tx.Commit(); err == nil {
			t.Fatalf("%s: a dead instance's transaction committed", name)
		}
		_ = tx.Abort()
	}

	rel2, err := db2.GetRelation("acct")
	if err != nil {
		t.Fatal(err)
	}
	tx := db2.Begin()
	got, err := tx.Get(rel2, row)
	if err != nil || got[1].(float64) != 1.0 {
		t.Fatalf("the seeded row after recovery: %v, %v", got, err)
	}
	mustCommit(t, tx)
}

// TestCommittersBesideRecyclingSorter: many committers insert, and
// delete what they inserted earlier, while the recovery CPU sorts their
// chains and recycles them into the pool, so a chain may be reissued
// before its committer's Commit has returned. Every committed row, and
// no deleted one, survives a crash and a restart.
func TestCommittersBesideRecyclingSorter(t *testing.T) {
	cfg := testConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("acct", acctSchema)
	if err != nil {
		t.Fatal(err)
	}
	const writers, txns = 8, 150
	live := make([]map[int64]RowID, writers)
	var wg sync.WaitGroup
	for w := range live {
		live[w] = map[int64]RowID{}
		wg.Add(1)
		go func(mine map[int64]RowID, base int64) {
			defer wg.Done()
			for i := int64(0); i < txns; i++ {
				key := base + i
				tx := db.Begin()
				id, err := tx.Insert(rel, heap.Tuple{key, float64(key), "w"})
				if err == nil && i%3 == 2 {
					err = tx.Delete(rel, mine[key-2])
				}
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					_ = tx.Abort()
					t.Error(err)
					return
				}
				mine[key] = id
				if i%3 == 2 {
					delete(mine, key-2)
				}
			}
		}(live[w], int64(w*txns))
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	db = crashAndRecover(t, db, cfg)
	defer db.Close()
	rel, err = db.GetRelation("acct")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]bool{}
	for _, mine := range live {
		for key := range mine {
			want[key] = true
		}
	}
	tx := db.Begin()
	defer tx.Abort()
	n := 0
	err = tx.Scan(rel, func(_ RowID, tup heap.Tuple) bool {
		key := tup[0].(int64)
		if !want[key] || tup[1].(float64) != float64(key) {
			t.Errorf("row %v after restart, not a committed one", tup)
		}
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("%d rows after restart, want %d", n, len(want))
	}
}
