package server

import (
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mmdb"
	"mmdb/internal/server/client"
)

// opsGet serves one ops-plane request directly through the handler (no
// real HTTP listener needed) and returns status + body.
func opsGet(s *Server, path string) (int, string) {
	rec := httptest.NewRecorder()
	s.OpsHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

// validFamily is the Prometheus metric-name grammar.
var validFamily = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// checkExposition holds a live scrape to the properties that depend on
// what is registered (the format itself is pinned by the metrics
// package's golden test): every # TYPE family name is valid and
// declared once, every sample belongs to a declared family, and each
// histogram's +Inf bucket equals its _count. It returns the sample
// count.
func checkExposition(t *testing.T, body string) int {
	t.Helper()
	types := map[string]string{}
	inf, count := map[string]string{}, map[string]string{}
	samples := 0
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if decl, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, typ, _ := strings.Cut(decl, " ")
			if !validFamily.MatchString(family) {
				t.Fatalf("invalid family name %q", family)
			}
			if _, dup := types[family]; dup {
				t.Fatalf("family %s declared twice", family)
			}
			types[family] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		samples++
		series, value, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(series, "{")
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suffix); ok && types[name] == "" && types[f] != "" {
				family = f
			}
		}
		if types[family] == "" {
			t.Fatalf("sample %q belongs to no declared family", line)
		}
		if types[family] == "histogram" {
			switch {
			case labels == `le="+Inf"}`:
				inf[family] = value
			case name == family+"_count":
				count[family] = value
			}
		}
	}
	for family, typ := range types {
		if typ == "histogram" && (inf[family] == "" || inf[family] != count[family]) {
			t.Fatalf("histogram %s: +Inf bucket %q, _count %q", family, inf[family], count[family])
		}
	}
	return samples
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
	if n := checkExposition(t, body); n == 0 {
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
	dbCfg.RecoveryWorkers = runtime.GOMAXPROCS(0)
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
