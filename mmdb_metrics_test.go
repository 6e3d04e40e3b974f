package mmdb

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mmdb/internal/heap"
	"mmdb/internal/metrics"
)

// TestMetricsAfterWorkload drives a workload with enough update churn
// to trigger checkpoints, crashes, recovers, and asserts that the
// metrics registry observed every phase: commit latency, SLB record
// writes and page flushes pre-crash; restart timings and partition
// recovery post-crash.
func TestMetricsAfterWorkload(t *testing.T) {
	cfg := testConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("accounts", acctSchema)
	if err != nil {
		t.Fatal(err)
	}
	var rows []RowID
	tx := db.Begin()
	for i := 0; i < 200; i++ {
		id, err := tx.Insert(rel, heap.Tuple{int64(i), float64(i), "holder"})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, id)
	}
	mustCommit(t, tx)
	// Churn past the update-count threshold (64) so checkpoints fire.
	for round := 0; round < 4; round++ {
		tx := db.Begin()
		for _, id := range rows {
			if err := tx.Update(rel, id, map[string]any{"balance": float64(round)}); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
	}
	db.WaitIdle()

	s := db.Metrics()
	txnS := s.Subsystem("txn")
	if txnS == nil {
		t.Fatal("no txn subsystem in snapshot")
	}
	if got := txnS.Counter("commits"); got < 5 {
		t.Errorf("commits = %d, want >= 5", got)
	}
	cl := txnS.Histogram("commit_latency")
	if cl == nil || cl.Count < 5 {
		t.Fatalf("commit_latency missing or undercounted: %+v", cl)
	}
	if cl.P50 <= 0 || cl.Max <= 0 || cl.Max < int64(cl.P50) {
		t.Errorf("commit_latency quantiles implausible: %+v", cl)
	}
	if h := s.Subsystem("slb").Histogram("record_write"); h == nil || h.Count == 0 {
		t.Errorf("slb record_write histogram empty: %+v", h)
	}
	if h := s.Subsystem("log").Histogram("page_flush"); h == nil || h.Count == 0 {
		t.Errorf("log page_flush histogram empty: %+v", h)
	}
	ck := s.Subsystem("checkpoint")
	if got := ck.Counter("completed"); got == 0 {
		t.Error("no checkpoints completed despite update churn")
	}
	if h := ck.Histogram("duration"); h == nil || h.Count == 0 {
		t.Errorf("checkpoint duration histogram empty: %+v", h)
	}
	if h := ck.Histogram("image_bytes"); h == nil || h.Count == 0 || h.Max == 0 {
		t.Errorf("checkpoint image_bytes histogram empty: %+v", h)
	}

	db2 := crashAndRecover(t, db, cfg)
	defer db2.Close()
	rel2, err := db2.GetRelation("accounts")
	if err != nil {
		t.Fatal(err)
	}
	tx = db2.Begin()
	n, err := tx.Count(rel2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("recovered %d rows, want 200", n)
	}

	// The recovered instance has a fresh registry; only restart-phase
	// metrics (and the count transaction) should be populated.
	s2 := db2.Metrics()
	rs := s2.Subsystem("restart")
	if h := rs.Histogram("root_scan"); h == nil || h.Count != 1 {
		t.Errorf("root_scan histogram not observed exactly once: %+v", h)
	}
	if h := rs.Histogram("partition_recovery"); h == nil || h.Count == 0 {
		t.Errorf("partition_recovery histogram empty: %+v", h)
	}
	if got := rs.Counter("partitions_recovered"); got == 0 {
		t.Error("no partitions recovered in metrics despite successful Count")
	}

	// The snapshot is plain data: it must survive a JSON round trip.
	buf, err := json.Marshal(s2)
	if err != nil {
		t.Fatal(err)
	}
	var back metrics.Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Subsystem("restart").Counter("partitions_recovered") != rs.Counter("partitions_recovered") {
		t.Error("JSON round trip lost counter values")
	}
}

// TestSimulatedCostLivesInTheRegistry: the §3 cost model — recovery-CPU
// instructions, stable-memory references, disk busy time — is the sim
// subsystem of DB.Metrics(), charged by the devices to the instance
// that is using them. After Crash and Recover the same devices charge
// the new instance's registry and never the dead one's.
func TestSimulatedCostLivesInTheRegistry(t *testing.T) {
	cfg := testConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("accounts", acctSchema)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	var rows []RowID
	for i := 0; i < 100; i++ {
		id, err := tx.Insert(rel, heap.Tuple{int64(i), float64(i), "holder"})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, id)
	}
	mustCommit(t, tx)
	for round := 0; round < 3; round++ { // past N_update: checkpoint images
		tx := db.Begin()
		for _, id := range rows {
			if err := tx.Update(rel, id, map[string]any{"balance": float64(round)}); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
	}
	// A second relation stays below N_update but fills log pages, so its
	// partition comes back from the log disk alone.
	cold, err := db.CreateRelation("cold", acctSchema)
	if err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	for i := 0; i < 20; i++ {
		if _, err := tx.Insert(cold, heap.Tuple{int64(i), 0.0, strings.Repeat("x", 120)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	db.WaitIdle()
	sim := []string{"recovery_instr", "stable_refs", "log_disk_busy_us", "ckpt_disk_busy_us"}
	for _, name := range sim {
		if v := counter(db, "sim", name); v <= 0 {
			t.Errorf("sim/%s = %d after a checkpointed workload, want > 0", name, v)
		}
	}

	hw := db.Crash()
	dead := db.Metrics().Subsystem("sim")
	cfg.FaultInjector.ClearCrash()
	db2, err := Recover(hw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v := counter(db2, "sim", "stable_refs"); v >= dead.Counter("stable_refs") {
		t.Errorf("recovered instance's sim/stable_refs = %d, not below the dead instance's %d: the counter was inherited", v, dead.Counter("stable_refs"))
	}
	before := db2.Metrics().Subsystem("sim")
	for _, name := range []string{"accounts", "cold"} { // demand every partition
		r, err := db2.GetRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := db2.Preload(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"log_disk_busy_us", "ckpt_disk_busy_us"} {
		if d := counter(db2, "sim", name) - before.Counter(name); d <= 0 {
			t.Errorf("demanded partitions charged %d to the new instance's sim/%s, want > 0", d, name)
		}
	}
	after := db.Metrics().Subsystem("sim")
	for _, name := range sim {
		if after.Counter(name) != dead.Counter(name) {
			t.Errorf("dead instance's sim/%s moved %d -> %d after the crash", name, dead.Counter(name), after.Counter(name))
		}
	}
}

// TestMetricsLockContention asserts the lock subsystem observes waits
// when two transactions collide on one row.
func TestMetricsLockContention(t *testing.T) {
	db := openTestDB(t)
	defer db.Close()
	rel, err := db.CreateRelation("accounts", acctSchema)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	id, err := tx.Insert(rel, heap.Tuple{int64(1), 1.0, "a"})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	holder := db.Begin()
	if err := holder.Update(rel, id, map[string]any{"balance": 2.0}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		tx := db.Begin()
		if err := tx.Update(rel, id, map[string]any{"balance": 3.0}); err != nil {
			_ = tx.Abort()
			done <- err
			return
		}
		done <- tx.Commit()
	}()
	// Let the second transaction block on the X lock, then release it.
	waitForLockQueue(t, db)
	mustCommit(t, holder)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if h := db.Metrics().Subsystem("lock").Histogram("wait"); h == nil || h.Count == 0 {
		t.Errorf("lock wait histogram empty after contention: %+v", h)
	}
}

// waitForLockQueue spins until some transaction is blocked in a lock
// queue, so releasing the holder afterwards guarantees the waiter's
// blocked interval lands in the wait histogram.
func waitForLockQueue(t *testing.T, db *DB) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if db.Manager().Txns.Locks().HasWaiters() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("second transaction never blocked on the lock")
}
