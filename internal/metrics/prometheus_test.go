package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

// buildSnapshot assembles a registry exercising every instrument kind,
// including names needing sanitisation and help text needing escaping.
func buildSnapshot(t *testing.T) Snapshot {
	t.Helper()
	reg := NewRegistry()
	sub := reg.Subsystem("server")
	c := sub.Counter("requests", "reqs", "requests served")
	c.Add(42)
	g := sub.Gauge("queue_depth", "reqs", "queued requests")
	g.Set(7)
	h := sub.Histogram("latency_debit-credit", "ns", `end-to-end latency \ "quoted"
second line`)
	for _, v := range []int64{100, 1000, 1000, 50_000, 2_000_000, 900_000_000} {
		h.Observe(v)
	}
	b := sub.Histogram("image", "bytes", "image sizes")
	b.Observe(4096)
	return reg.Snapshot()
}

func TestWritePrometheusValidates(t *testing.T) {
	var sb strings.Builder
	if err := WritePrometheus(&sb, buildSnapshot(t), "mmdb"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	n, err := ValidateExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	if n == 0 {
		t.Fatal("no samples emitted")
	}
	for _, want := range []string{
		"# TYPE mmdb_server_requests_total counter",
		"mmdb_server_requests_total 42",
		"# TYPE mmdb_server_queue_depth gauge",
		"mmdb_server_queue_depth 7",
		// '-' sanitised to '_', ns converted to base seconds.
		"# TYPE mmdb_server_latency_debit_credit_seconds histogram",
		"mmdb_server_latency_debit_credit_seconds_count 6",
		`mmdb_server_latency_debit_credit_seconds_bucket{le="+Inf"} 6`,
		"# TYPE mmdb_server_latency_debit_credit_seconds_quantiles summary",
		`mmdb_server_latency_debit_credit_seconds_quantiles{quantile="0.99"}`,
		// bytes unit suffixes the name without double-appending.
		"# TYPE mmdb_server_image_bytes histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// HELP escaping: backslash doubled, newline folded.
	if !strings.Contains(out, `end-to-end latency \\ "quoted"\nsecond line`) {
		t.Errorf("help not escaped:\n%s", out)
	}
}

func TestPrometheusBucketsCumulativeAndConsistent(t *testing.T) {
	var sb strings.Builder
	if err := WritePrometheus(&sb, buildSnapshot(t), "mmdb"); err != nil {
		t.Fatal(err)
	}
	var lastCum int64 = -1
	var infVal, countVal int64 = -1, -1
	var sumSeen bool
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "mmdb_server_latency_debit_credit_seconds") {
			continue
		}
		name, _, v, err := parseSample(line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		switch {
		case strings.HasPrefix(line, "mmdb_server_latency_debit_credit_seconds_bucket"):
			if int64(v) < lastCum {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			lastCum = int64(v)
			if strings.Contains(line, `le="+Inf"`) {
				infVal = int64(v)
			}
		case name == "mmdb_server_latency_debit_credit_seconds_sum":
			sumSeen = true
			// 902_052_100 ns observed in total -> seconds.
			if math.Abs(v-0.9020521) > 1e-9 {
				t.Fatalf("_sum = %v, want 0.9020521 seconds", v)
			}
		case name == "mmdb_server_latency_debit_credit_seconds_count":
			countVal = int64(v)
		}
	}
	if !sumSeen || infVal != countVal || countVal != 6 {
		t.Fatalf("sum/count/+Inf inconsistent: sum=%v inf=%d count=%d", sumSeen, infVal, countVal)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no TYPE":        "foo 1\n",
		"bad name":       "# TYPE 1bad counter\n1bad 1\n",
		"bad value":      "# TYPE foo counter\nfoo one\n",
		"non-cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"no +Inf":        "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"inf != count":   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n",
		"missing sum":    "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n",
		"bad escape":     "# TYPE foo counter\nfoo{a=\"\\q\"} 1\n",
		"bad label name": "# TYPE foo counter\nfoo{1a=\"x\"} 1\n",
	}
	for name, in := range cases {
		if _, err := ValidateExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validation unexpectedly passed:\n%s", name, in)
		}
	}
	good := "# HELP foo help text\n# TYPE foo counter\nfoo{a=\"x\\\"y\\\\z\\n\"} 1 1700000000\n"
	if _, err := ValidateExposition(strings.NewReader(good)); err != nil {
		t.Errorf("escaped label rejected: %v", err)
	}
}

func TestRegisterRuntime(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntime(reg)
	s := reg.Snapshot()
	rt := s.Subsystem("runtime")
	if rt == nil {
		t.Fatal("no runtime subsystem")
	}
	var goroutines, uptime int64
	for _, g := range rt.Gauges {
		switch g.Name {
		case "goroutines":
			goroutines = g.Value
		case "uptime":
			uptime = g.Value
		}
	}
	if goroutines < 1 {
		t.Fatalf("goroutines = %d, want >= 1", goroutines)
	}
	time.Sleep(time.Millisecond)
	s2 := reg.Snapshot()
	var uptime2 int64
	for _, g := range s2.Subsystem("runtime").Gauges {
		if g.Name == "uptime" {
			uptime2 = g.Value
		}
	}
	if uptime2 <= uptime {
		t.Fatalf("uptime did not advance: %d -> %d", uptime, uptime2)
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, s2, "mmdb"); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateExposition(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("runtime exposition invalid: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "mmdb_runtime_goroutines") {
		t.Fatalf("runtime gauges missing from exposition:\n%s", sb.String())
	}
}

func TestHistogramSnapshotBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)
	h.Observe(3)
	h.Observe(3)
	v := h.snapshot()
	want := []HistogramBucket{{Lo: 0, Hi: 1, Count: 1}, {Lo: 1, Hi: 2, Count: 1}, {Lo: 2, Hi: 4, Count: 2}}
	if len(v.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", v.Buckets, want)
	}
	for i := range want {
		if v.Buckets[i] != want[i] {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, v.Buckets[i], want[i])
		}
	}
}
