package mmdb

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/heap"
)

func TestDropRelation(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, _ := db.CreateRelation("doomed", acctSchema)
	if _, err := db.CreateIndex(rel, "by_id", "id", KindTTree, 8); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 30; i++ {
		if _, err := tx.Insert(rel, heap.Tuple{int64(i), 1.0, "x"}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	db.WaitIdle()
	if err := db.DropRelation("doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetRelation("doomed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dropped relation still visible: %v", err)
	}
	if err := db.DropRelation("doomed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double drop: %v", err)
	}
	// The name can be reused, and survives a crash as the new
	// relation only.
	rel2, err := db.CreateRelation("doomed", acctSchema)
	if err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	if _, err := tx2.Insert(rel2, heap.Tuple{int64(99), 9.0, "new"}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx2)
	db.WaitIdle()
	db2 := crashAndRecover(t, db, testConfig())
	defer db2.Close()
	rel3, err := db2.GetRelation("doomed")
	if err != nil {
		t.Fatal(err)
	}
	tx3 := db2.Begin()
	defer tx3.Abort()
	n, err := tx3.Count(rel3)
	if err != nil || n != 1 {
		t.Fatalf("recovered reused relation has %d rows, %v", n, err)
	}
}

// Dropping a relation frees its checkpoint images, and its indexes', in
// the allocation map as well as on the disk, so a track is reused at once
// rather than after the next restart. Twelve tracks carry thirty create,
// checkpoint, drop cycles of a relation with a T-Tree and a linear hash
// index without one failed attempt.
func TestDropFreesCheckpointTracks(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointTracks = 12
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	requested := 0
	for cycle := 0; cycle < 30; cycle++ {
		rel, err := db.CreateRelation("cycled", acctSchema)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateIndex(rel, "by_id", "id", KindTTree, 8); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateIndex(rel, "by_owner", "owner", KindLinHash, 8); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		for i := 0; i < 20; i++ {
			if _, err := tx.Insert(rel, heap.Tuple{int64(i), 1.0, "x"}); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
		for _, seg := range rel.segments() {
			parts, err := db.partsOfSegment(seg)
			if err != nil {
				t.Fatal(err)
			}
			for _, ps := range parts {
				db.mgr.RequestCheckpoint(addr.PartitionID{Segment: seg, Part: ps.Part})
				requested++
			}
		}
		db.WaitIdle()
		if err := db.DropRelation("cycled"); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle()
	if n := counter(db, "checkpoint", "failed"); n != 0 {
		t.Fatalf("%d checkpoint attempts failed (%d requests abandoned, %d completed)",
			n, counter(db, "checkpoint", "abandoned"), counter(db, "checkpoint", "completed"))
	}
	if n := counter(db, "checkpoint", "completed"); n < int64(requested) {
		t.Fatalf("%d checkpoints completed for %d requested over 30 cycles", n, requested)
	}
}

func TestDropIndex(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, _ := db.CreateRelation("r", acctSchema)
	if _, err := db.CreateIndex(rel, "by_id", "id", KindTTree, 8); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	id, _ := tx.Insert(rel, heap.Tuple{int64(1), 1.0, "x"})
	mustCommit(t, tx)
	if err := db.DropIndex(rel, "by_id"); err != nil {
		t.Fatal(err)
	}
	if rel.Index("by_id") != nil {
		t.Fatal("index still attached")
	}
	if err := db.DropIndex(rel, "by_id"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double drop: %v", err)
	}
	// Data unaffected; updates no longer maintain the index.
	tx2 := db.Begin()
	if err := tx2.Update(rel, id, map[string]any{"id": int64(2)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx2)
	// Index can be recreated and is rebuilt from existing rows.
	idx, err := db.CreateIndex(rel, "by_id", "id", KindTTree, 8)
	if err != nil {
		t.Fatal(err)
	}
	tx3 := db.Begin()
	defer tx3.Abort()
	hits := 0
	if err := tx3.IndexLookup(idx, int64(2), func(RowID, heap.Tuple) bool { hits++; return true }); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("recreated index hits = %d", hits)
	}
}

func TestPreload(t *testing.T) {
	db := openTestDB(t)
	rel, _ := db.CreateRelation("r", acctSchema)
	if _, err := db.CreateIndex(rel, "by_id", "id", KindTTree, 8); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 40; i++ {
		if _, err := tx.Insert(rel, heap.Tuple{int64(i), 0.0, "x"}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	db.WaitIdle()
	db2 := crashAndRecover(t, db, testConfig())
	defer db2.Close()
	rel2, _ := db2.GetRelation("r")
	before := counter(db2, "restart", "partitions_recovered")
	// Method 1: predeclare — everything resident before the txn runs.
	if err := db2.Preload(rel2); err != nil {
		t.Fatal(err)
	}
	after := counter(db2, "restart", "partitions_recovered")
	if after <= before {
		t.Fatal("preload recovered nothing")
	}
	// Subsequent access demands no further recovery.
	tx2 := db2.Begin()
	defer tx2.Abort()
	if _, err := tx2.Count(rel2); err != nil {
		t.Fatal(err)
	}
	if got := counter(db2, "restart", "partitions_recovered"); got != after {
		t.Fatalf("scan after preload recovered %d more partitions", got-after)
	}
}

func TestBackgroundRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.BackgroundRecovery = true
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.CreateRelation("r", acctSchema)
	tx := db.Begin()
	for i := 0; i < 100; i++ {
		if _, err := tx.Insert(rel, heap.Tuple{int64(i), 0.0, "padpadpadpadpad"}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	db.WaitIdle()
	db2 := crashAndRecover(t, db, cfg)
	defer db2.Close()
	// Without touching anything, the background sweep should restore
	// all partitions.
	rel2, _ := db2.GetRelation("r")
	want, err := db2.partsOfSegment(rel2.seg)
	if err != nil {
		t.Fatal(err)
	}
	db2.WaitIdle()
	resident := 0
	for _, ps := range want {
		if db2.store.Resident(RowID{Segment: rel2.seg, Part: ps.Part}.Partition()) {
			resident++
		}
	}
	if resident != len(want) {
		t.Fatalf("background sweep restored %d of %d partitions", resident, len(want))
	}
}

func TestDeadlockDetectedAtFacade(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, _ := db.CreateRelation("r", acctSchema)
	tx := db.Begin()
	a, _ := tx.Insert(rel, heap.Tuple{int64(1), 1.0, "a"})
	b, _ := tx.Insert(rel, heap.Tuple{int64(2), 2.0, "b"})
	mustCommit(t, tx)

	t1 := db.Begin()
	t2 := db.Begin()
	if err := t1.Update(rel, a, map[string]any{"balance": 10.0}); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update(rel, b, map[string]any{"balance": 20.0}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- t1.Update(rel, b, map[string]any{"balance": 11.0}) }()
	waitForLockQueue(t, db)
	err := t2.Update(rel, a, map[string]any{"balance": 21.0})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("got %v, want deadlock", err)
	}
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Victim's effects are gone; winner's persist.
	t3 := db.Begin()
	defer t3.Abort()
	got, _ := t3.Get(rel, a)
	if got[1] != 10.0 {
		t.Fatalf("a.balance = %v", got[1])
	}
	got, _ = t3.Get(rel, b)
	if got[1] != 11.0 {
		t.Fatalf("b.balance = %v", got[1])
	}
}

func TestMediaFailureRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.UpdateThreshold = 32 // several checkpoints happen
	cfg.LogWindowPages = 16  // and the older log pages roll into the archive
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.CreateRelation("r", acctSchema)
	if _, err := db.CreateIndex(rel, "by_id", "id", KindTTree, 8); err != nil {
		t.Fatal(err)
	}
	want := map[int64]float64{}
	ids := map[int64]RowID{}
	for round := 0; round < 6; round++ {
		tx := db.Begin()
		for i := 0; i < 25; i++ {
			k := int64(round*25 + i)
			id, err := tx.Insert(rel, heap.Tuple{k, float64(k), "m"})
			if err != nil {
				t.Fatal(err)
			}
			want[k], ids[k] = float64(k), id
		}
		// Rewrite and thin out the previous round's rows, so updates and
		// deletes of a row sit on the far side of a checkpoint from its
		// insert (and from each other): a history replayed out of order
		// or twice would bring back an old balance or a deleted row.
		for i := 0; round > 0 && i < 25; i++ {
			k := int64((round-1)*25 + i)
			if i%5 == 0 {
				if err := tx.Delete(rel, ids[k]); err != nil {
					t.Fatal(err)
				}
				delete(want, k)
				continue
			}
			want[k] += 1000
			if err := tx.Update(rel, ids[k], map[string]any{"balance": want[k]}); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
		db.WaitIdle()
	}
	db.WaitIdle()
	if n := counter(db, "checkpoint", "completed"); n < 2 {
		t.Fatalf("%d checkpoints completed; the workload must straddle several", n)
	}
	hw := db.Crash()
	cfg.FaultInjector.ClearCrash() // power back on for the rebuild
	if hw.Arch.Entries() == 0 {
		t.Fatal("no log page was archived; the history must span both media")
	}

	// The checkpoint disk set burns down. Every image is gone.
	hw.Ckpt.Fail()
	db2, err := RecoverFromMediaFailure(hw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every checkpointed partition lost its image and was rebuilt from
	// its history, one for one.
	restart, arch := db2.Metrics().Subsystem("restart"), db2.Metrics().Subsystem("archive")
	if q, r, f := restart.Counter("images_quarantined"), arch.Counter("rebuilds"), arch.Counter("rebuild_failed"); q == 0 || q != r || f != 0 {
		t.Fatalf("images_quarantined=%d archive/rebuilds=%d rebuild_failed=%d, want equal, non-zero, none failed", q, r, f)
	}
	rel2, err := db2.GetRelation("r")
	if err != nil {
		t.Fatal(err)
	}
	tx := db2.Begin()
	got := map[int64]float64{}
	if err := tx.Scan(rel2, func(id RowID, tup heap.Tuple) bool {
		got[tup[0].(int64)] = tup[1].(float64)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if len(got) != len(want) {
		t.Fatalf("rebuilt %d rows, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d = %v, want %v", k, got[k], v)
		}
	}
	// The index works after the rebuild.
	idx := rel2.Index("by_id")
	tx2 := db2.Begin()
	hits := 0
	if err := tx2.IndexLookup(idx, int64(77), func(RowID, heap.Tuple) bool { hits++; return true }); err != nil {
		t.Fatal(err)
	}
	tx2.Abort()
	if hits != 1 {
		t.Fatalf("index lookup after media rebuild: %d hits", hits)
	}
	// And the rebuilt database is crash-durable again: a regular
	// crash+recover round trip still works.
	tx3 := db2.Begin()
	if _, err := tx3.Insert(rel2, heap.Tuple{int64(999), 9.0, "post"}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx3)
	db2.WaitIdle()
	db3 := crashAndRecover(t, db2, cfg)
	defer db3.Close()
	rel3, _ := db3.GetRelation("r")
	tx4 := db3.Begin()
	defer tx4.Abort()
	n, err := tx4.Count(rel3)
	if err != nil || n != len(want)+1 {
		t.Fatalf("after second crash: %d rows, %v", n, err)
	}
}

// TestConcurrentWorkloadThenCrash runs concurrent writers against
// several relations, crashes, and verifies committed effects survive
// exactly.
func TestConcurrentWorkloadThenCrash(t *testing.T) {
	cfg := testConfig()
	cfg.UpdateThreshold = 48
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rels []*Relation
	for i := 0; i < 3; i++ {
		rel, err := db.CreateRelation(fmt.Sprintf("rel%d", i), acctSchema)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	type entry struct {
		rel int
		id  RowID
		val float64
	}
	var mu sync.Mutex
	committed := map[RowID]entry{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				ri := rng.Intn(len(rels))
				tx := db.Begin()
				val := float64(w*1000 + i)
				id, err := tx.Insert(rels[ri], heap.Tuple{int64(w*1000 + i), val, "c"})
				if err != nil {
					_ = tx.Abort()
					continue
				}
				if rng.Intn(5) == 0 {
					_ = tx.Abort() // deliberately abandon some
					continue
				}
				if err := tx.Commit(); err != nil {
					continue
				}
				mu.Lock()
				committed[id] = entry{rel: ri, id: id, val: val}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	db.WaitIdle()
	db2 := crashAndRecover(t, db, cfg)
	defer db2.Close()
	total := 0
	for i := range rels {
		rel2, err := db2.GetRelation(fmt.Sprintf("rel%d", i))
		if err != nil {
			t.Fatal(err)
		}
		tx := db2.Begin()
		err = tx.Scan(rel2, func(id RowID, tup heap.Tuple) bool {
			mu.Lock()
			e, ok := committed[id]
			mu.Unlock()
			if !ok {
				t.Errorf("uncommitted/unknown row %v survived", id)
			} else if e.val != tup[1].(float64) {
				t.Errorf("row %v value %v, want %v", id, tup[1], e.val)
			}
			total++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		tx.Abort()
	}
	if total != len(committed) {
		t.Fatalf("recovered %d rows, committed %d", total, len(committed))
	}
}

func TestCreateErrors(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	if _, err := db.CreateRelation("bad", heap.Schema{}); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := db.CreateRelation("r", acctSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("r", acctSchema); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate relation: %v", err)
	}
	rel, _ := db.GetRelation("r")
	if _, err := db.CreateIndex(rel, "i", "ghost", KindTTree, 8); err == nil {
		t.Fatal("index on missing column accepted")
	}
	if _, err := db.CreateIndex(rel, "i", "id", IndexKind(99), 8); err == nil {
		t.Fatal("bad index kind accepted")
	}
	if _, err := db.CreateIndex(rel, "i", "id", KindTTree, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(rel, "i", "id", KindTTree, 8); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate index: %v", err)
	}
	if _, err := db.GetRelation("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing relation: %v", err)
	}
}

func TestCloseSemantics(t *testing.T) {
	db := openTestDB(t)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
	if _, err := db.CreateRelation("late", acctSchema); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
}

func TestUpdateMovesIndexedKey(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, _ := db.CreateRelation("r", acctSchema)
	idx, _ := db.CreateIndex(rel, "by_id", "id", KindTTree, 8)
	tx := db.Begin()
	id, _ := tx.Insert(rel, heap.Tuple{int64(5), 1.0, "x"})
	mustCommit(t, tx)

	tx2 := db.Begin()
	if err := tx2.Update(rel, id, map[string]any{"id": int64(500)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx2)

	tx3 := db.Begin()
	defer tx3.Abort()
	hits := 0
	if err := tx3.IndexLookup(idx, int64(5), func(RowID, heap.Tuple) bool { hits++; return true }); err != nil {
		t.Fatal(err)
	}
	if hits != 0 {
		t.Fatal("old key still indexed")
	}
	if err := tx3.IndexLookup(idx, int64(500), func(RowID, heap.Tuple) bool { hits++; return true }); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("new key hits = %d", hits)
	}
}

func TestIndexMaintenanceUnderAbort(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, _ := db.CreateRelation("r", acctSchema)
	idx, _ := db.CreateIndex(rel, "by_id", "id", KindTTree, 8)
	tx := db.Begin()
	id, _ := tx.Insert(rel, heap.Tuple{int64(7), 1.0, "x"})
	mustCommit(t, tx)

	// Abort an update that would have moved the key and a delete.
	tx2 := db.Begin()
	if err := tx2.Update(rel, id, map[string]any{"id": int64(700)}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	tx3 := db.Begin()
	if err := tx3.Delete(rel, id); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Abort(); err != nil {
		t.Fatal(err)
	}

	tx4 := db.Begin()
	defer tx4.Abort()
	hits := 0
	if err := tx4.IndexLookup(idx, int64(7), func(RowID, heap.Tuple) bool { hits++; return true }); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("after aborts, key 7 hits = %d", hits)
	}
	if err := tx4.IndexLookup(idx, int64(700), func(RowID, heap.Tuple) bool { hits++; return true }); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatal("phantom key 700 present after abort")
	}
}
