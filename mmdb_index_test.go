package mmdb

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mmdb/internal/heap"
)

func TestStringKeyTTreeIndex(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, _ := db.CreateRelation("users", heap.Schema{
		{Name: "name", Type: heap.String},
		{Name: "age", Type: heap.Int64},
	})
	idx, err := db.CreateIndex(rel, "by_name", "name", KindTTree, 8)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"mallory", "alice", "bob", "carol", "dave", "eve", "frank", "grace", "heidi"}
	tx := db.Begin()
	for i, n := range names {
		if _, err := tx.Insert(rel, heap.Tuple{n, int64(20 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	tx2 := db.Begin()
	defer tx2.Abort()
	// Exact match.
	hits := 0
	if err := tx2.IndexLookup(idx, "carol", func(id RowID, tup heap.Tuple) bool {
		hits++
		if tup[0] != "carol" {
			t.Fatalf("lookup returned %v", tup)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("hits = %d", hits)
	}
	// Range scan comes back in lexicographic order.
	var got []string
	if err := tx2.IndexRange(idx, "bob", "eve", func(id RowID, tup heap.Tuple) bool {
		got = append(got, tup[0].(string))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"bob", "carol", "dave", "eve"}
	if len(got) != len(want) {
		t.Fatalf("range = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range = %v, want %v", got, want)
		}
	}
}

func TestFloatKeyHashIndex(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, _ := db.CreateRelation("m", heap.Schema{
		{Name: "temp", Type: heap.Float64},
		{Name: "station", Type: heap.Int64},
	})
	idx, err := db.CreateIndex(rel, "by_temp", "temp", KindLinHash, 8)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 50; i++ {
		if _, err := tx.Insert(rel, heap.Tuple{float64(i) / 2, int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	tx2 := db.Begin()
	defer tx2.Abort()
	hits := 0
	if err := tx2.IndexLookup(idx, 12.5, func(id RowID, tup heap.Tuple) bool {
		hits++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("float hash hits = %d", hits)
	}
	// Wrong key type is a clean error.
	err = tx2.IndexLookup(idx, "not-a-float", func(RowID, heap.Tuple) bool { return true })
	if err == nil {
		t.Fatal("string key accepted by float index")
	}
}

func TestIndexRangeOpenBounds(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, _ := db.CreateRelation("r", acctSchema)
	idx, _ := db.CreateIndex(rel, "by_id", "id", KindTTree, 4)
	tx := db.Begin()
	for i := 0; i < 20; i++ {
		if _, err := tx.Insert(rel, heap.Tuple{int64(i), 0.0, "x"}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	tx2 := db.Begin()
	defer tx2.Abort()
	count := func(lo, hi any) int {
		t.Helper()
		n := 0
		if err := tx2.IndexRange(idx, lo, hi, func(RowID, heap.Tuple) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := count(nil, nil); got != 20 {
		t.Fatalf("full range = %d", got)
	}
	if got := count(int64(15), nil); got != 5 {
		t.Fatalf("[15,inf) = %d", got)
	}
	if got := count(nil, int64(4)); got != 5 {
		t.Fatalf("(-inf,4] = %d", got)
	}
	if got := count(int64(10), int64(9)); got != 0 {
		t.Fatalf("empty range = %d", got)
	}
	// Range on a hash index is rejected.
	h, _ := db.CreateIndex(rel, "h", "id", KindLinHash, 4)
	if err := tx2.IndexRange(h, int64(0), int64(5), func(RowID, heap.Tuple) bool { return true }); err == nil {
		t.Fatal("IndexRange on hash index accepted")
	}
}

func TestTwoIndexesStayConsistent(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, _ := db.CreateRelation("r", acctSchema)
	byID, _ := db.CreateIndex(rel, "by_id", "id", KindTTree, 8)
	byOwner, _ := db.CreateIndex(rel, "by_owner", "owner", KindLinHash, 8)

	rng := rand.New(rand.NewSource(5))
	type row struct {
		id    int64
		owner string
	}
	live := map[RowID]row{}
	for step := 0; step < 400; step++ {
		tx := db.Begin()
		switch op := rng.Intn(10); {
		case op < 5 || len(live) == 0:
			r := row{id: int64(step), owner: fmt.Sprintf("own%d", step%7)}
			id, err := tx.Insert(rel, heap.Tuple{r.id, 0.0, r.owner})
			if err != nil {
				t.Fatal(err)
			}
			live[id] = r
		case op < 8:
			for rid, r := range live {
				r.id += 10000
				if err := tx.Update(rel, rid, map[string]any{"id": r.id}); err != nil {
					t.Fatal(err)
				}
				live[rid] = r
				break
			}
		default:
			for rid := range live {
				if err := tx.Delete(rel, rid); err != nil {
					t.Fatal(err)
				}
				delete(live, rid)
				break
			}
		}
		mustCommit(t, tx)
	}

	// Both indexes agree with the live set.
	tx := db.Begin()
	defer tx.Abort()
	var fromTree []int64
	if err := tx.IndexRange(byID, nil, nil, func(id RowID, tup heap.Tuple) bool {
		fromTree = append(fromTree, tup[0].(int64))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(fromTree) != len(live) {
		t.Fatalf("tree has %d entries, live %d", len(fromTree), len(live))
	}
	if !sort.SliceIsSorted(fromTree, func(i, j int) bool { return fromTree[i] < fromTree[j] }) {
		t.Fatal("tree range not sorted")
	}
	ownerCounts := map[string]int{}
	for _, r := range live {
		ownerCounts[r.owner]++
	}
	for owner, want := range ownerCounts {
		n := 0
		if err := tx.IndexLookup(byOwner, owner, func(RowID, heap.Tuple) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("owner %q: hash %d, live %d", owner, n, want)
		}
	}
}

func TestStableMemoryExhaustion(t *testing.T) {
	cfg := testConfig()
	cfg.StableBytes = 24 << 10 // tiny: fills after a few blocks
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, err := db.CreateRelation("r", acctSchema)
	if err != nil {
		t.Skipf("stable memory too small even for DDL: %v", err)
	}
	// Let the sorter take the DDL's records before the SLB is filled:
	// a bin that needs a page while an open transaction holds the last
	// byte panics the recovery CPU, which ROADMAP item 13 owns.
	db.WaitIdle()
	// Keep writing in one transaction until the SLB gives out; the
	// transaction must fail cleanly and abort must fully roll back.
	tx := db.Begin()
	var failed error
	for i := 0; i < 100000; i++ {
		if _, err := tx.Insert(rel, heap.Tuple{int64(i), 0.0, "padding-padding-padding"}); err != nil {
			failed = err
			break
		}
	}
	if failed == nil {
		t.Fatal("SLB never exhausted")
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// The rollback released the stable blocks; a small txn fits again.
	tx2 := db.Begin()
	if _, err := tx2.Insert(rel, heap.Tuple{int64(1), 1.0, "ok"}); err != nil {
		t.Fatalf("after rollback: %v", err)
	}
	mustCommit(t, tx2)
}

// TestFreedLogBlocksServeEveryStream runs large transactions one after
// another on a stable memory that holds about three of them at once.
// Consecutive transactions land on different log streams, so each one
// fits only if the blocks its predecessors' sorted chains freed are
// usable by any stream.
func TestFreedLogBlocksServeEveryStream(t *testing.T) {
	cfg := testConfig()
	cfg.LogStreams = 4
	cfg.StableBytes = 1 << 20
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, err := db.CreateRelation("r", acctSchema)
	if err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	pad := string(make([]byte, 1000))
	const txns, rowsPerTxn = 8, 350 // ≈ 350 KB of rows per transaction
	for i := 0; i < txns; i++ {
		tx := db.Begin()
		for j := 0; j < rowsPerTxn; j++ {
			if _, err := tx.Insert(rel, heap.Tuple{int64(i*rowsPerTxn + j), 0.0, pad}); err != nil {
				t.Fatalf("txn %d row %d: %v", i, j, err)
			}
		}
		mustCommit(t, tx)
		db.WaitIdle()
	}
	stable := db.Manager().Hardware().Stable
	if used := stable.Used(); used >= cfg.StableBytes/8 {
		t.Fatalf("stable memory in use after the last WaitIdle = %d B, want < %d", used, cfg.StableBytes/8)
	}
}

func TestScanEarlyStopAndReadYourWrites(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, _ := db.CreateRelation("r", acctSchema)
	tx := db.Begin()
	for i := 0; i < 10; i++ {
		if _, err := tx.Insert(rel, heap.Tuple{int64(i), 0.0, "x"}); err != nil {
			t.Fatal(err)
		}
	}
	// Uncommitted rows visible to own scan.
	n := 0
	if err := tx.Scan(rel, func(RowID, heap.Tuple) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("own scan saw %d", n)
	}
	// Early stop.
	n = 0
	if err := tx.Scan(rel, func(RowID, heap.Tuple) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("early stop at %d", n)
	}
	mustCommit(t, tx)
}

func TestGetMissingRow(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, _ := db.CreateRelation("r", acctSchema)
	tx := db.Begin()
	id, _ := tx.Insert(rel, heap.Tuple{int64(1), 0.0, "x"})
	mustCommit(t, tx)
	tx2 := db.Begin()
	if err := tx2.Delete(rel, id); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx2)
	tx3 := db.Begin()
	defer tx3.Abort()
	if _, err := tx3.Get(rel, id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get deleted row: %v", err)
	}
	if err := tx3.Delete(rel, id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete deleted row: %v", err)
	}
	if err := tx3.Update(rel, id, map[string]any{"balance": 1.0}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update deleted row: %v", err)
	}
	if err := tx3.Update(rel, id, nil); err != nil {
		t.Fatalf("empty update should be a no-op: %v", err)
	}
}

// TestIndexesIsCopyOnWrite: the per-row paths read the index list on
// every insert, update and delete, so reading it must cost nothing, and a
// list already handed out must not change under DDL.
func TestIndexesIsCopyOnWrite(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, _ := db.CreateRelation("t", heap.Schema{{Name: "a", Type: heap.Int64}, {Name: "b", Type: heap.Int64}})
	first, err := db.CreateIndex(rel, "by_a", "a", KindLinHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := rel.Indexes()
	if n := testing.AllocsPerRun(100, func() { _ = rel.Indexes() }); n != 0 {
		t.Fatalf("Indexes allocates %v times per call", n)
	}
	second, err := db.CreateIndex(rel, "by_b", "b", KindTTree, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 || before[0] != first {
		t.Fatalf("list handed out before CreateIndex changed: %v", before)
	}
	if got := rel.Indexes(); len(got) != 2 || got[0] != first || got[1] != second {
		t.Fatalf("Indexes after CreateIndex = %v", got)
	}
	if err := db.DropIndex(rel, "by_a"); err != nil {
		t.Fatal(err)
	}
	if got := rel.Indexes(); len(got) != 1 || got[0] != second {
		t.Fatalf("Indexes after DropIndex = %v", got)
	}
	if len(before) != 1 || before[0] != first {
		t.Fatalf("list handed out before DropIndex changed: %v", before)
	}
}
