package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1023, 10}, {1024, 11},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBucketBoundsRoundTrip(t *testing.T) {
	// Every bucket's bounds must contain exactly the values that map to
	// it: lo maps in, hi maps to the next bucket.
	for i := 0; i < numBuckets-1; i++ {
		lo, hi := BucketBounds(i)
		if bucketIndex(lo) != i {
			t.Errorf("bucket %d: lower bound %d maps to bucket %d", i, lo, bucketIndex(lo))
		}
		if hi != math.MaxInt64 && bucketIndex(hi) != i+1 {
			t.Errorf("bucket %d: upper bound %d maps to bucket %d, want %d", i, hi, bucketIndex(hi), i+1)
		}
		if hi != math.MaxInt64 && bucketIndex(hi-1) != i {
			t.Errorf("bucket %d: hi-1=%d maps to bucket %d", i, hi-1, bucketIndex(hi-1))
		}
	}
}

func TestHistogramBasic(t *testing.T) {
	var h Histogram
	for _, v := range []int64{10, 20, 30, 40, 1000} {
		h.Observe(v)
	}
	v := h.snapshot()
	if v.Count != 5 {
		t.Fatalf("Count = %d, want 5", v.Count)
	}
	if v.Sum != 1100 {
		t.Fatalf("Sum = %d, want 1100", v.Sum)
	}
	if v.Min != 10 || v.Max != 1000 {
		t.Fatalf("Min/Max = %d/%d, want 10/1000", v.Min, v.Max)
	}
	if v.Mean != 220 {
		t.Fatalf("Mean = %v, want 220", v.Mean)
	}
	// Quantiles are bucket estimates: p50 must land within a factor of
	// two of the true median (32 is the true median's bucket range
	// [16,32)... the median 30 lives in bucket [16,32)).
	if v.P50 < 16 || v.P50 > 64 {
		t.Errorf("P50 = %v, want within [16, 64]", v.P50)
	}
	if v.P99 > float64(v.Max) || v.P99 < float64(v.Min) {
		t.Errorf("P99 = %v outside observed range [%d, %d]", v.P99, v.Min, v.Max)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-7) // clamped to 0
	v := h.snapshot()
	if v.Count != 2 || v.Sum != 0 {
		t.Fatalf("Count/Sum = %d/%d, want 2/0", v.Count, v.Sum)
	}
	if v.Min != 0 || v.Max != 0 {
		t.Fatalf("Min/Max = %d/%d, want 0/0", v.Min, v.Max)
	}
	if v.P50 != 0 || v.P99 != 0 {
		t.Fatalf("quantiles = %v/%v, want 0/0", v.P50, v.P99)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	v := h.snapshot()
	if v.Count != 0 || v.Sum != 0 || v.Min != 0 || v.Max != 0 || v.P50 != 0 {
		t.Fatalf("empty snapshot not zero: %+v", v)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.Observe(500)
	v := h.snapshot()
	if v.Min != 500 || v.Max != 500 {
		t.Fatalf("Min/Max = %d/%d, want 500/500", v.Min, v.Max)
	}
	// All quantiles clamp to the single observed value.
	if v.P50 != 500 || v.P95 != 500 || v.P99 != 500 {
		t.Fatalf("quantiles = %v/%v/%v, want 500", v.P50, v.P95, v.P99)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(5)
	c.Inc()
	g.Set(3)
	g.Add(-1)
	h.Observe(10)
	h.ObserveDuration(time.Millisecond)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if v := h.snapshot(); v.Count != 0 {
		t.Fatal("nil histogram snapshot must be zero")
	}
	var r *Registry
	if s := r.Snapshot(); len(s.Subsystems) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestConcurrentObservations(t *testing.T) {
	// Exercised under -race in CI: concurrent Observe/Add against one
	// instrument set, with snapshots taken mid-flight.
	reg := NewRegistry()
	sub := reg.Subsystem("bench")
	c := sub.Counter("events", "events", "")
	h := sub.Histogram("latency", "ns", "")

	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(seed*1000 + int64(i)%997)
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = reg.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	v := h.snapshot()
	if v.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", v.Count, workers*perWorker)
	}
}

func TestRegistrySnapshotStructure(t *testing.T) {
	reg := NewRegistry()
	a := reg.Subsystem("alpha")
	a.Counter("c1", "events", "first")
	a.Gauge("g1", "parts", "second")
	a.Histogram("h1", "ns", "third").Observe(42)
	reg.Subsystem("beta").Counter("c2", "pages", "").Add(7)
	// Subsystem is get-or-create.
	if reg.Subsystem("alpha") != a {
		t.Fatal("Subsystem must return the existing subsystem")
	}

	s := reg.Snapshot()
	if len(s.Subsystems) != 2 || s.Subsystems[0].Name != "alpha" || s.Subsystems[1].Name != "beta" {
		t.Fatalf("subsystems = %+v, want [alpha beta]", s.Subsystems)
	}
	if got := s.Subsystem("beta").Counter("c2"); got != 7 {
		t.Fatalf("beta.c2 = %d, want 7", got)
	}
	if s.Subsystem("alpha").Histogram("h1") == nil {
		t.Fatal("alpha.h1 histogram missing from snapshot")
	}
	if s.Subsystem("missing") != nil || s.Subsystem("alpha").Histogram("nope") != nil {
		t.Fatal("lookups of absent entries must return nil")
	}
	if s.Subsystem("alpha").Counter("nope") != 0 {
		t.Fatal("absent counter must read zero")
	}

	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot must marshal to JSON: %v", err)
	}
}

func TestQuantileMonotone(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	v := h.snapshot()
	if !(v.P50 <= v.P95 && v.P95 <= v.P99) {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", v.P50, v.P95, v.P99)
	}
	if v.P50 < float64(v.Min) || v.P99 > float64(v.Max) {
		t.Fatalf("quantiles outside [min,max]: %+v", v)
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		want string
	}{
		{250, "ns", "250ns"},
		{2500, "ns", "2.5µs"},
		{2_500_000, "ns", "2.50ms"},
		{2_500_000_000, "ns", "2.50s"},
		{512, "bytes", "512B"},
		{49152, "bytes", "48.0KiB"},
		{3 << 20, "bytes", "3.00MiB"},
		{42, "pages", "42"},
	}
	for _, c := range cases {
		if got := FormatValue(c.v, c.unit); got != c.want {
			t.Errorf("FormatValue(%v, %q) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
}

func TestFormatTableSkipsEmpty(t *testing.T) {
	reg := NewRegistry()
	sub := reg.Subsystem("s")
	sub.Counter("used", "events", "").Inc()
	sub.Counter("unused", "events", "")
	sub.Histogram("silent", "ns", "")
	out := FormatTable(reg.Snapshot())
	if !strings.Contains(out, "used") {
		t.Fatalf("table must include non-zero counter:\n%s", out)
	}
	if strings.Contains(out, "unused") || strings.Contains(out, "silent") {
		t.Fatalf("table must skip zero-valued instruments:\n%s", out)
	}
}
