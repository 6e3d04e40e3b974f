package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mmdb"
	"mmdb/internal/metrics"
	"mmdb/internal/server/client"
)

// opsGet serves one ops-plane request directly through the handler (no
// real HTTP listener needed) and returns status + body.
func opsGet(s *Server, path string) (int, string) {
	rec := httptest.NewRecorder()
	s.OpsHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

func TestOpsMetricsValidExposition(t *testing.T) {
	s, cleanup := startServer(t, testDBConfig(), Config{})
	defer cleanup()
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateRelation("t", wireSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("t", []any{int64(1), 1.0, "x"}); err != nil {
		t.Fatal(err)
	}

	code, body := opsGet(s, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	n, err := metrics.ValidateExposition(strings.NewReader(body))
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	if n == 0 {
		t.Fatal("no samples in /metrics")
	}
	// Both registries must be present: DB instruments and the server's
	// own, including the process runtime telemetry.
	for _, want := range []string{
		"mmdb_txn_commits_total",
		"mmdb_server_requests_total",
		"mmdb_runtime_goroutines",
		"mmdb_restart_ttp99_restored_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}

func TestOpsHealthAndRecoveryAcrossCrash(t *testing.T) {
	dbCfg := testDBConfig()
	dbCfg.BackgroundRecovery = true
	dbCfg.RecoveryWorkers = 2
	dbCfg.HeatSnapshotBytes = 8 << 10
	dbCfg.HeatPersistEvery = 4
	s, cleanup := startServer(t, dbCfg, Config{})
	defer cleanup()
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if code, body := opsGet(s, "/healthz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("/healthz = %d %q before crash", code, body)
	}

	if err := c.CreateRelation("t", wireSchema); err != nil {
		t.Fatal(err)
	}
	addr, err := c.Insert("t", []any{int64(1), 1.0, "x"})
	if err != nil {
		t.Fatal(err)
	}
	// Skew the heat profile so the recovered ranking is non-empty.
	for i := 0; i < 64; i++ {
		if _, err := c.Get("t", addr); err != nil {
			t.Fatal(err)
		}
	}
	s.DB().Manager().Heat().Persist()

	if _, err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	// WaitIdle covers the background sweep.
	s.DB().WaitIdle()
	if s.DB().RecoveryProgress(0).Recovering {
		t.Fatal("still recovering after WaitIdle")
	}

	if code, body := opsGet(s, "/healthz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("/healthz = %d %q after recovery", code, body)
	}
	code, body := opsGet(s, "/recovery?top=5")
	if code != 200 {
		t.Fatalf("/recovery = %d", code)
	}
	var p mmdb.RecoveryProgress
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("/recovery not JSON: %v\n%s", err, body)
	}
	if !p.SweepDone || p.Recovering {
		t.Fatalf("recovery not settled: %+v", p)
	}
	if p.PartsRecovered == 0 || p.PartsTotal == 0 {
		t.Fatalf("no recovery progress recorded: %+v", p)
	}
	if p.HeatWeightTotal == 0 || p.HeatFractionRestored != 1 || p.TTP99RestoredNS <= 0 {
		t.Fatalf("heat progress not published: %+v", p)
	}
	if len(p.TopHot) == 0 {
		t.Fatalf("no top-hot partitions: %+v", p)
	}
	for _, hp := range p.TopHot {
		if !hp.Recovered {
			t.Fatalf("hot partition %+v not recovered after sweep", hp)
		}
	}
	// Post-crash, the recovered data is served again.
	tup, err := c.Get("t", addr)
	if err != nil || tup[0] != int64(1) {
		t.Fatalf("Get after crash = %v, %v", tup, err)
	}
}

// TestOpsScrapeUnderLoad hammers /metrics, /healthz, and /recovery
// while transactions and a remote crash run — the race detector's view
// of the ops plane.
func TestOpsScrapeUnderLoad(t *testing.T) {
	dbCfg := testDBConfig()
	dbCfg.BackgroundRecovery = true
	dbCfg.HeatSnapshotBytes = 8 << 10
	dbCfg.HeatPersistEvery = 4
	s, cleanup := startServer(t, dbCfg, Config{})
	defer cleanup()
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateRelation("t", wireSchema); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/healthz", "/recovery"} {
					code, body := opsGet(s, path)
					if code != 200 && code != 503 {
						t.Errorf("%s = %d %q", path, code, body)
						return
					}
				}
				// Deliberate pacing, not a wait for the engine: scrapes pace
				// like a real scraper, not a busy loop, since a /metrics
				// snapshot stops the world (ReadMemStats) and three
				// unthrottled scrapers starve the executors.
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := c.Insert("t", []any{int64(i + 10), 1.0, "x"}); err != nil {
			t.Fatal(err)
		}
		if i == 100 {
			if _, err := c.Crash(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
