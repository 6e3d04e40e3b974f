package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestEstimators(t *testing.T) {
	// The best quarter: two of eight samples, from the better end.
	xs := []float64{100, 1, 2, 3, 4, 5, 6, -50}
	if got := bestQuarter(xs, false); !near(got, -24.5) {
		t.Errorf("bestQuarter(lower) = %v, want -24.5", got)
	}
	if got := bestQuarter(xs, true); !near(got, 53) {
		t.Errorf("bestQuarter(higher) = %v, want 53", got)
	}
	if got := bestQuarter([]float64{7, 9, 8}, false); !near(got, 7) {
		t.Errorf("bestQuarter of three samples = %v, want the best one, 7", got)
	}
	asc := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 30}, {0.95, 48}, {1, 50}, {0.125, 15}} {
		if got := percentile(asc, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q2, 4) || !near(q3, 12) {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := cv([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !near(got, 0.4) {
		t.Errorf("cv = %v, want 0.4", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: spTxn, Start: 0, End: 100, Parent: -1},
		{Name: spLookup, Start: 10, End: 30, Parent: 0},
		{Name: spCommit, Start: 40, End: 90, Parent: 0},
		{Name: spTxn, Start: 100, End: 150, Parent: -1},
		{Name: spLookup, Start: 100, End: 110, Parent: 3},
	}
	self, count := selfTimes(spans)
	if self[spTxn] != 30+40 || self[spLookup] != 30 || self[spCommit] != 50 {
		t.Errorf("self times = %v", self)
	}
	if count[spTxn] != 2 || count[spLookup] != 2 || count[spCommit] != 1 {
		t.Errorf("counts = %v", count)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	sz := fullSizes()
	for _, w := range workloadNames {
		stream := func(seed int64) uint64 {
			g := newGenerator(w, seed, sz)
			h := uint64(0)
			for r := 0; r < 3; r++ {
				h = h*31 + streamHash(g.round(sz.roundTxns[w]))
			}
			return h
		}
		if stream(1) != stream(1) {
			t.Errorf("%s: same seed gave different streams", w)
		}
		if stream(1) == stream(2) {
			t.Errorf("%s: different seeds gave the same stream", w)
		}
		post := postCrashOps(w, sz)
		if len(post) != sz.postTxns || post[0].kind == opPKLookup || post[0].kind == opTreeLookup || post[0].kind == opTreeRange {
			t.Errorf("%s: %d post-crash ops, first is a read (kind %d)", w, len(post), post[0].kind)
		}
		if streamHash(post) != streamHash(postCrashOps(w, sz)) {
			t.Errorf("%s: post-crash ops are not fixed", w)
		}
	}
}

func TestGeneratorShapes(t *testing.T) {
	sz := fullSizes()
	const n = 40000
	hot := 0
	for _, o := range newGenerator(wUpdateCrash, 7, sz).round(n / 4) {
		for _, k := range o.k {
			if k < 0 || int(k) >= sz.bulkRows {
				t.Fatalf("update_crash key %d out of range", k)
			}
			if k%10 == 0 {
				hot++
			}
		}
	}
	if share := float64(hot) / n; share < 0.88 || share > 0.92 {
		t.Errorf("update_crash hot share = %.3f, want 0.90", share)
	}
	kinds := map[opKind]int{}
	for _, o := range newGenerator(wReadMix, 7, sz).round(n) {
		kinds[o.kind]++
		if o.k[0] < 0 || int(o.k[0]) >= sz.bulkRows {
			t.Fatalf("read_mix key %d out of range", o.k[0])
		}
	}
	for kind, want := range map[opKind]float64{opPKLookup: 0.45, opTreeLookup: 0.35, opTreeRange: 0.10, opBalUpdate: 0.10} {
		if got := float64(kinds[kind]) / n; math.Abs(got-want) > 0.02 {
			t.Errorf("read_mix kind %d share = %.3f, want %.2f", kind, got, want)
		}
	}
	// grp is a permutation of the ids.
	for _, rows := range []int{fullSizes().bulkRows, quickSizes().bulkRows} {
		seen := make([]bool, rows)
		for id := 0; id < rows; id++ {
			g := grpOf(id, rows)
			if seen[g] {
				t.Fatalf("grpOf repeats %d for %d rows", g, rows)
			}
			seen[g] = true
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's own tables
// identical, and inside the limits the contract sets.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("keys = %v, want %v", keys, want)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command = %v", b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var workloads []string
	for _, w := range b.Workloads {
		name(w.Name)
		workloads = append(workloads, w.Name)
		if w.Why == "" || len(w.Why) > 200 || regexp.MustCompile(`\n`).MatchString(w.Why) {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("workloads = %v, want %v", workloads, workloadNames)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, harness has %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Bound == nil || m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || *m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, m, d)
			continue
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v out of limits", i, m)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, harness has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer[%d] = %+v out of limits", i, m)
		}
	}
}

// TestQuickWorkloads runs every workload at the quick size, untraced and
// traced: two crash cycles with their audits, the final checks, the probes,
// and every declared metric present exactly once with its unit.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, err := run(options{workload: w, seed: 3, seconds: 0, trace: trace, quick: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", w, trace, rep.Correct, rep.Attempted, rep.Failed, rep.notes)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w, trace, d.Name, m, ok)
				}
			}
			line, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var top map[string]json.RawMessage
			if err := json.Unmarshal(line, &top); err != nil {
				t.Fatal(err)
			}
			if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
				t.Errorf("result line keys: %s", line)
			}
			if trace && w != wDCWire {
				// The workload did what it was chosen for.
				ins := rep.Metrics["mmdb.insert_us"].Value
				if isDC(w) != (ins > 0) {
					t.Errorf("%s: mmdb.insert_us = %v", w, ins)
				}
			}
		}
	}
}

// TestAuditDetectsLoss shows the audit is not vacuous: an acknowledgement
// with no effect behind it is reported as lost, an effect with no
// acknowledgement as a phantom.
func TestAuditDetectsLoss(t *testing.T) {
	sz := quickSizes()
	db, ds, _, err := setup(wDCInproc, sz)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	e, err := newInproc(db, benchConfig(wDCInproc), ds, sz)
	if err != nil {
		t.Fatal(err)
	}
	acks := newAckLog(sz)
	ran := op{kind: opDebitCredit, k: [4]int32{1, 2, 3}}
	if err := e.one(ran, nil, 0); err != nil {
		t.Fatal(err)
	}
	acks.ack(ran)
	res, err := acks.audit(db, ds, false, true)
	if err != nil || res.lost+res.phantom != 0 || res.checked != 4 {
		t.Fatalf("clean audit: %+v, %v", res, err)
	}
	acks.ack(op{kind: opDebitCredit, k: [4]int32{4, 5, 6}}) // acknowledged, never run
	if err := e.one(op{kind: opUpdate4, k: [4]int32{7, 7, 8, 9}}, nil, 0); err != nil {
		t.Fatal(err) // run, never acknowledged
	}
	res, err = acks.audit(db, ds, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.lost != 4 || res.phantom != 4 {
		t.Errorf("audit found %d lost and %d phantom effects, want 4 and 4 (%s)", res.lost, res.phantom, res.first)
	}
}
