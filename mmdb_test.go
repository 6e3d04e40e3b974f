package mmdb

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mmdb/internal/fault"
	"mmdb/internal/heap"
)

// testConfig shrinks the hardware so tests exercise page flushes,
// checkpoints, and window movement quickly.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.PartitionSize = 8 << 10
	cfg.LogPageSize = 1 << 10
	cfg.SLBBlockSize = 1 << 10
	cfg.UpdateThreshold = 64
	cfg.LogWindowPages = 256
	cfg.GracePages = 4
	cfg.CheckpointTracks = 512
	cfg.StableBytes = 16 << 20
	cfg.BackgroundRecovery = false // tests control recovery explicitly
	// An (initially empty) injector so test crashes go through the same
	// fault machinery as the crashhunt sweeps.
	cfg.FaultInjector = fault.NewInjector(fault.Plan{})
	return cfg
}

var acctSchema = heap.Schema{
	{Name: "id", Type: heap.Int64},
	{Name: "balance", Type: heap.Float64},
	{Name: "owner", Type: heap.String},
}

func openTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustCommit(t *testing.T, tx *Txn) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// crashAndRecover simulates a hard machine crash of db and brings a new
// instance up from the surviving hardware through the normal §2.5
// restart, failing the test on any recovery error. DB.Crash routes the
// halt through the config's fault injector so in-flight simulated I/O
// fails sharply — the same crash the crashhunt sweep injects — and the
// injector is power-cycled before recovery runs.
func crashAndRecover(tb testing.TB, db *DB, cfg Config) *DB {
	tb.Helper()
	hw := db.Crash()
	cfg.FaultInjector.ClearCrash()
	db2, err := Recover(hw, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return db2
}

// counter reads one counter of db's registry, e.g.
// counter(db, "checkpoint", "completed").
func counter(db *DB, sub, name string) int64 { return db.Metrics().Subsystem(sub).Counter(name) }

func TestBasicCRUD(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, err := db.CreateRelation("accounts", acctSchema)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	id, err := tx.Insert(rel, heap.Tuple{int64(1), 100.0, "alice"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tx.Get(rel, id)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(heap.Tuple{int64(1), 100.0, "alice"}) {
		t.Fatalf("Get = %v", got)
	}
	mustCommit(t, tx)

	tx2 := db.Begin()
	if err := tx2.Update(rel, id, map[string]any{"balance": 150.0}); err != nil {
		t.Fatal(err)
	}
	got, err = tx2.Get(rel, id)
	if err != nil || got[1] != 150.0 {
		t.Fatalf("after update: %v, %v", got, err)
	}
	mustCommit(t, tx2)

	tx3 := db.Begin()
	if err := tx3.Delete(rel, id); err != nil {
		t.Fatal(err)
	}
	if _, err := tx3.Get(rel, id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	mustCommit(t, tx3)

	tx4 := db.Begin()
	defer tx4.Abort()
	n, err := tx4.Count(rel)
	if err != nil || n != 0 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

// TestDeferredDeletesFreeSlotsInLogOrder: one transaction deletes eight
// rows of one partition. Commit frees their slots in delete order, as
// replay of the log does, so the next eight inserts get the same RowIDs
// live as after a crash and recovery.
func TestDeferredDeletesFreeSlotsInLogOrder(t *testing.T) {
	nextIDs := func(crash bool) []RowID {
		cfg := testConfig()
		cfg.UpdateThreshold = 1 << 30 // no checkpoint: restart replays the deletes
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := db.CreateRelation("r", acctSchema)
		if err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		var ids []RowID
		for i := 0; i < 20; i++ {
			id, err := tx.Insert(rel, heap.Tuple{int64(i), 0.0, "row"})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		mustCommit(t, tx)
		if p := ids[len(ids)-1].Partition(); p != ids[0].Partition() {
			t.Fatalf("rows span partitions %v and %v, want one", ids[0].Partition(), p)
		}
		tx = db.Begin()
		for _, i := range []int{3, 11, 5, 17, 0, 9, 14, 7} {
			if err := tx.Delete(rel, ids[i]); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
		if crash {
			db = crashAndRecover(t, db, cfg)
			if rel, err = db.GetRelation("r"); err != nil {
				t.Fatal(err)
			}
		}
		defer db.Close()
		tx = db.Begin()
		if n, err := tx.Count(rel); err != nil || n != 12 { // demands the partition after a restart
			t.Fatalf("Count = %d, %v; want 12", n, err)
		}
		mustCommit(t, tx)
		tx = db.Begin()
		var got []RowID
		for i := 0; i < 8; i++ {
			id, err := tx.Insert(rel, heap.Tuple{int64(100 + i), 0.0, "new"})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, id)
		}
		mustCommit(t, tx)
		return got
	}
	live, recovered := nextIDs(false), nextIDs(true)
	if !slices.Equal(live, recovered) {
		t.Fatalf("inserts after the deletes got %v live but %v after recovery", live, recovered)
	}
}

func TestAbortRollsBack(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, _ := db.CreateRelation("r", acctSchema)
	tx := db.Begin()
	id, _ := tx.Insert(rel, heap.Tuple{int64(1), 1.0, "x"})
	mustCommit(t, tx)

	tx2 := db.Begin()
	if _, err := tx2.Insert(rel, heap.Tuple{int64(2), 2.0, "y"}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Update(rel, id, map[string]any{"owner": "changed"}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}

	tx3 := db.Begin()
	defer tx3.Abort()
	n, _ := tx3.Count(rel)
	if n != 1 {
		t.Fatalf("Count after abort = %d", n)
	}
	got, err := tx3.Get(rel, id)
	if err != nil || got[2] != "x" {
		t.Fatalf("row after abort = %v, %v", got, err)
	}
}

func TestCrashRecoverNoCheckpoint(t *testing.T) {
	db := openTestDB(t)
	rel, _ := db.CreateRelation("accounts", acctSchema)
	var ids []RowID
	tx := db.Begin()
	for i := 0; i < 20; i++ {
		id, err := tx.Insert(rel, heap.Tuple{int64(i), float64(i) * 10, fmt.Sprintf("owner-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	mustCommit(t, tx)
	// An uncommitted transaction at crash time must vanish.
	loser := db.Begin()
	if _, err := loser.Insert(rel, heap.Tuple{int64(999), 0.0, "ghost"}); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	db2 := crashAndRecover(t, db, testConfig())
	defer db2.Close()
	rel2, err := db2.GetRelation("accounts")
	if err != nil {
		t.Fatal(err)
	}
	tx2 := db2.Begin()
	defer tx2.Abort()
	n, err := tx2.Count(rel2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("recovered %d rows, want 20", n)
	}
	for i, id := range ids {
		got, err := tx2.Get(rel2, id)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		want := heap.Tuple{int64(i), float64(i) * 10, fmt.Sprintf("owner-%d", i)}
		if !got.Equal(want) {
			t.Fatalf("row %d = %v, want %v", i, got, want)
		}
	}
}

func TestCrashRecoverWithCheckpoints(t *testing.T) {
	cfg := testConfig()
	cfg.UpdateThreshold = 32 // force frequent checkpoints
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.CreateRelation("accounts", acctSchema)
	for round := 0; round < 10; round++ {
		tx := db.Begin()
		for i := 0; i < 20; i++ {
			k := round*20 + i
			if _, err := tx.Insert(rel, heap.Tuple{int64(k), float64(k), fmt.Sprintf("o%d", k)}); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
	}
	db.WaitIdle() // let checkpoints drain
	if counter(db, "checkpoint", "completed") == 0 {
		t.Fatal("no checkpoints completed despite low threshold")
	}
	db2 := crashAndRecover(t, db, cfg)
	defer db2.Close()
	rel2, _ := db2.GetRelation("accounts")
	tx := db2.Begin()
	defer tx.Abort()
	seen := map[int64]bool{}
	err = tx.Scan(rel2, func(id RowID, tup heap.Tuple) bool {
		k := tup[0].(int64)
		if seen[k] {
			t.Fatalf("duplicate key %d after recovery", k)
		}
		seen[k] = true
		if tup[1] != float64(k) || tup[2] != fmt.Sprintf("o%d", k) {
			t.Fatalf("row %d corrupted: %v", k, tup)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 200 {
		t.Fatalf("recovered %d rows, want 200", len(seen))
	}
}

func TestIndexSurvivesCrash(t *testing.T) {
	db := openTestDB(t)
	rel, _ := db.CreateRelation("accounts", acctSchema)
	idxT, err := db.CreateIndex(rel, "by_id", "id", KindTTree, 8)
	if err != nil {
		t.Fatal(err)
	}
	_ = idxT
	idxH, err := db.CreateIndex(rel, "by_owner", "owner", KindLinHash, 8)
	if err != nil {
		t.Fatal(err)
	}
	_ = idxH
	tx := db.Begin()
	for i := 0; i < 50; i++ {
		if _, err := tx.Insert(rel, heap.Tuple{int64(i), float64(i), fmt.Sprintf("own%d", i%10)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	db.WaitIdle()
	db2 := crashAndRecover(t, db, testConfig())
	defer db2.Close()
	rel2, _ := db2.GetRelation("accounts")
	bt := rel2.Index("by_id")
	if bt == nil {
		t.Fatal("T-Tree index lost")
	}
	bh := rel2.Index("by_owner")
	if bh == nil {
		t.Fatal("hash index lost")
	}
	tx2 := db2.Begin()
	defer tx2.Abort()
	// Point lookup through the recovered T-Tree.
	var hits int
	err = tx2.IndexLookup(bt, int64(17), func(id RowID, tup heap.Tuple) bool {
		hits++
		if tup[0] != int64(17) {
			t.Fatalf("lookup returned %v", tup)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("T-Tree lookup hits = %d", hits)
	}
	// Range scan.
	var keys []int64
	err = tx2.IndexRange(bt, int64(10), int64(15), func(id RowID, tup heap.Tuple) bool {
		keys = append(keys, tup[0].(int64))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 || keys[0] != 10 || keys[5] != 15 {
		t.Fatalf("range = %v", keys)
	}
	// Hash lookup: 5 tuples share owner "own3".
	hits = 0
	err = tx2.IndexLookup(bh, "own3", func(id RowID, tup heap.Tuple) bool {
		hits++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits != 5 {
		t.Fatalf("hash lookup hits = %d, want 5", hits)
	}
}

func TestRepeatedCrashes(t *testing.T) {
	cfg := testConfig()
	cfg.UpdateThreshold = 40
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.CreateRelation("r", acctSchema)
	want := map[int64]float64{}
	next := int64(0)
	for round := 0; round < 5; round++ {
		tx := db.Begin()
		for i := 0; i < 30; i++ {
			if _, err := tx.Insert(rel, heap.Tuple{next, float64(next), "x"}); err != nil {
				t.Fatal(err)
			}
			want[next] = float64(next)
			next++
		}
		mustCommit(t, tx)
		db.WaitIdle()
		db = crashAndRecover(t, db, cfg)
		rel, err = db.GetRelation("r")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		tx2 := db.Begin()
		got := map[int64]float64{}
		err = tx2.Scan(rel, func(id RowID, tup heap.Tuple) bool {
			got[tup[0].(int64)] = tup[1].(float64)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		tx2.Abort()
		if len(got) != len(want) {
			t.Fatalf("round %d: %d rows, want %d", round, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("round %d: key %d = %v, want %v", round, k, got[k], v)
			}
		}
	}
	db.Close()
}

// TestInsertBeforeSweepKeepsAcknowledgedRows inserts right after Recover,
// before any partition of the relation has been demanded. A partition
// that is not yet resident still exists: the new row must not take a
// partition number the catalog already names, or the fresh partition
// hides the unrecovered one for good and its acknowledged rows are gone.
func TestInsertBeforeSweepKeepsAcknowledgedRows(t *testing.T) {
	cfg := testConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("history", acctSchema)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 400 // three 8 KB partitions of ~60-byte tuples
	want := map[RowID]int64{}
	for i := 0; i < rows; i++ {
		tx := db.Begin()
		id, err := tx.Insert(rel, heap.Tuple{int64(i), float64(i), strings.Repeat("h", 24)})
		if err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		want[id] = int64(i)
	}
	db.WaitIdle()
	parts, err := db.partsOfSegment(rel.seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) < 2 {
		t.Fatalf("relation has %d partitions; the test needs several", len(parts))
	}

	db2 := crashAndRecover(t, db, cfg)
	defer db2.Close()
	rel2, err := db2.GetRelation("history")
	if err != nil {
		t.Fatal(err)
	}
	tx := db2.Begin()
	id, err := tx.Insert(rel2, heap.Tuple{int64(rows), float64(rows), "after"})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if _, taken := want[id]; taken {
		t.Fatalf("new row was given the RowID %v of an acknowledged row", id)
	}
	want[id] = rows

	tx2 := db2.Begin()
	defer tx2.Abort()
	got := map[RowID]int64{}
	if err := tx2.Scan(rel2, func(id RowID, tup heap.Tuple) bool {
		got[id] = tup[0].(int64)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	lost := 0
	for id, k := range want {
		if g, ok := got[id]; !ok || g != k {
			lost++
		}
	}
	if lost != 0 || len(got) != len(want) {
		t.Fatalf("%d of %d acknowledged rows lost after one insert before the sweep (scan sees %d rows)", lost, len(want), len(got))
	}
}
