package experiments

import (
	"strings"
	"testing"
)

func TestGraph1ShapeAndAgreement(t *testing.T) {
	series, err := Graph1([]int{8, 24, 64}, []int{4 << 10, 16 << 10}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		prev := 1e18
		for _, p := range s.Points {
			if p.Measured <= 0 || p.Analytic <= 0 {
				t.Fatalf("%s: non-positive point %+v", s.Label, p)
			}
			// Measured capacity from the real code path must agree
			// with the analytic model within 25% (same instruction
			// charges, minor bookkeeping differences).
			ratio := p.Measured / p.Analytic
			if ratio < 0.75 || ratio > 1.33 {
				t.Fatalf("%s x=%v: measured/analytic = %.3f", s.Label, p.X, ratio)
			}
			if p.Measured >= prev {
				t.Fatalf("%s: records/s not decreasing in record size", s.Label)
			}
			prev = p.Measured
		}
	}
	// Larger pages dominate pointwise.
	for i := range series[0].Points {
		if series[1].Points[i].Measured <= series[0].Points[i].Measured {
			t.Fatalf("16KB pages should beat 4KB at x=%v", series[0].Points[i].X)
		}
	}
}

func TestGraph2DerivedRates(t *testing.T) {
	series, err := Graph2([]int{24}, []int{1, 4, 20}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	// 1 record/txn supports ~N times the rate of N records/txn.
	one := series[0].Points[0].Measured
	four := series[1].Points[0].Measured
	twenty := series[2].Points[0].Measured
	if one/four < 3.5 || one/four > 4.5 {
		t.Fatalf("1-vs-4 ratio %.2f", one/four)
	}
	if one/twenty < 18 || one/twenty > 22 {
		t.Fatalf("1-vs-20 ratio %.2f", one/twenty)
	}
	// The paper's headline: ~4000 debit/credit (4-record) txns/sec.
	if four < 2500 || four > 7000 {
		t.Fatalf("4-record txn rate %.0f outside the paper's ballpark", four)
	}
}

// Graph 3 at paperbench's size: at every logging rate, the more
// checkpoints are age-triggered, the more checkpoints per second, both
// analytic and measured (0 < 25 < 50 < 100 % by age).
func TestGraph3MixOrdering(t *testing.T) {
	series, err := Graph3(nil, nil, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("%d series, want the 0, 25, 50 and 100 %% mixes", len(series))
	}
	for _, s := range series {
		for _, p := range s.Points {
			if p.Analytic <= 0 || p.Measured < 0 {
				t.Fatalf("%s: bad point %+v", s.Label, p)
			}
		}
		// Linear in logging rate: the rates run 2500, 5000, ...
		if r := s.Points[1].Analytic / s.Points[0].Analytic; r < 1.99 || r > 2.01 {
			t.Fatalf("%s: not linear (%v)", s.Label, r)
		}
	}
	for i := range series[0].Points {
		for k := 1; k < len(series); k++ {
			lo, hi := series[k-1].Points[i], series[k].Points[i]
			if hi.Analytic <= lo.Analytic || hi.Measured <= lo.Measured {
				t.Fatalf("at %v records/s: %s (%+v) does not exceed %s (%+v)",
					lo.X, series[k].Label, hi, series[k-1].Label, lo)
			}
		}
	}
}

func TestRecoveryComparisonShape(t *testing.T) {
	res, err := RecoveryComparison(64, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartLevelFirstUS <= 0 || res.DBLevelFirstUS <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	// §3.4.1: time-to-first-transaction must be far lower with
	// partition-level recovery when the hot set is small.
	if res.SpeedupFirstTxn < 4 {
		t.Fatalf("speedup = %.2f, want >= 4 (%+v)", res.SpeedupFirstTxn, res)
	}
	// Full partition-level recovery is in the same league as the full
	// reload (same data volume, plus per-partition seeks).
	if res.PartLevelFullUS < res.DBLevelFirstUS/4 {
		t.Fatalf("full recovery suspiciously cheap: %+v", res)
	}
}

func TestRecoveryComparisonScaling(t *testing.T) {
	small, err := RecoveryComparison(16, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	large, err := RecoveryComparison(128, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Database-level first-txn time grows with DB size; partition-
	// level stays flat (same hot set) => speedup grows.
	if large.SpeedupFirstTxn <= small.SpeedupFirstTxn {
		t.Fatalf("speedup did not grow with DB size: %v -> %v",
			small.SpeedupFirstTxn, large.SpeedupFirstTxn)
	}
}

func TestFormatSeries(t *testing.T) {
	s := []Series{{Label: "a", Points: []Point{{X: 1, Analytic: 2, Measured: 3}}}}
	out := FormatSeries("T", "x", "y", s)
	for _, want := range []string{"T", "x", "analytic", "measured", "1", "2", "3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if out2 := FormatSeries("T", "x", "y", nil); !strings.Contains(out2, "T") {
		t.Fatal("empty series output")
	}
}

func TestPredeclareVsDemand(t *testing.T) {
	res, err := PredeclareVsDemand(64, 8, 100, 24)
	if err != nil {
		t.Fatal(err)
	}
	// Method 2's first transaction starts orders of magnitude sooner.
	if res.DemandFirstUS >= res.PredeclareFirstUS/4 {
		t.Fatalf("on-demand first txn %dus !<< predeclare %dus", res.DemandFirstUS, res.PredeclareFirstUS)
	}
	// Most on-demand transactions hit already-recovered hot partitions.
	if res.DemandP50US != 0 {
		t.Fatalf("median on-demand latency %dus, want 0 (hot partitions resident)", res.DemandP50US)
	}
	// The worst on-demand latency (a cold miss) is far below a full reload.
	if res.DemandMaxUS >= res.PredeclareFirstUS {
		t.Fatalf("worst on-demand %dus !< full reload %dus", res.DemandMaxUS, res.PredeclareFirstUS)
	}
	// Total recovery I/O over the run is bounded by the full reload
	// (only touched partitions were restored).
	if res.DemandTotalUS > res.PredeclareTotalUS {
		t.Fatalf("on-demand total %dus > predeclare total %dus", res.DemandTotalUS, res.PredeclareTotalUS)
	}
}

func TestSweepScalingMonotonic(t *testing.T) {
	pts, err := SweepScaling([]int{32}, []int{1, 2, 4}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	// More recovery workers must strictly shorten the sweep's critical
	// path (the acceptance criterion of `paperbench restart`).
	for i := 1; i < len(pts); i++ {
		if pts[i].SweepMS >= pts[i-1].SweepMS {
			t.Fatalf("sweep time not improving: %d workers %.2fms -> %d workers %.2fms",
				pts[i-1].Workers, pts[i-1].SweepMS, pts[i].Workers, pts[i].SweepMS)
		}
	}
	for _, p := range pts {
		if p.Errors != 0 {
			t.Fatalf("sweep errors at %d workers: %d", p.Workers, p.Errors)
		}
		if p.PartsPerSec <= 0 {
			t.Fatalf("bad throughput at %d workers: %+v", p.Workers, p)
		}
	}
}

// TestRestartExperimentsShareOneDatabase holds §3.4.1 and R2 to one
// crashed database: restoring every partition costs the same in both.
// At 120 records per partition the post-checkpoint updates fill log
// pages, so the restore reads log pages as well as images.
func TestRestartExperimentsShareOneDatabase(t *testing.T) {
	rc, err := RecoveryComparison(32, 4, 120)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := PredeclareVsDemand(32, 8, 50, 120)
	if err != nil {
		t.Fatal(err)
	}
	if rc.PartLevelFullUS != pd.PredeclareFirstUS {
		t.Fatalf("§3.4.1 full restore %dus != R2 predeclare %dus", rc.PartLevelFullUS, pd.PredeclareFirstUS)
	}
}
