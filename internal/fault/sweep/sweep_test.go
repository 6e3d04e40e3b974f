package sweep

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mmdb/internal/fault"
)

// TestSweepShort is the crash-consistency acceptance sweep: the
// short-mode plan enumeration must exercise a substantial number of
// distinct crash points and find no violations.
func TestSweepShort(t *testing.T) {
	opts := Options{Seed: 1, Ops: 120, PerPoint: 6, Logf: t.Logf}
	wantCrashes := 50
	if testing.Short() {
		opts.Ops = 60
		opts.PerPoint = 2
		wantCrashes = 15
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.CrashesFired < wantCrashes {
		t.Fatalf("sweep exercised %d distinct crash points, want >= %d (plans=%d, fired=%d)",
			res.CrashesFired, wantCrashes, res.PlansRun, res.RulesFired)
	}
	if res.RulesFired < res.PlansRun*3/4 {
		t.Errorf("only %d of %d plans fired their rule; sampled hits drifted too far from baseline", res.RulesFired, res.PlansRun)
	}
}

// TestSweepLoseCkptDisk runs the short sweep with every crash turned
// into a media failure: the checkpoint disk set is blank at each
// recovery, so every checkpointed partition comes back from archive ∪
// log window ∪ bin under the same fault plans and invariants — and each
// lost image must be answered by exactly one completed rebuild.
func TestSweepLoseCkptDisk(t *testing.T) {
	res, err := Run(Options{Seed: 1, Ops: 60, PerPoint: 2, LoseCkptDisk: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	d := res.Detection
	if d.ArchiveRebuilds == 0 {
		t.Fatalf("no partition was rebuilt from its history over %d plans: the media failure never happened", res.PlansRun)
	}
	if d.ArchiveRebuildFailed != 0 || d.ImagesQuarantined != d.ArchiveRebuilds {
		t.Fatalf("images_quarantined=%d archive_rebuilds=%d archive_rebuild_failed=%d, want every lost image rebuilt",
			d.ImagesQuarantined, d.ArchiveRebuilds, d.ArchiveRebuildFailed)
	}
}

// TestSweepDetectsBrokenDuplexRepair is the checker's self-test: with
// the §2.2 duplexed-read fallback sabotaged, latent bad sectors on the
// primary log disk must surface as violations with reproducible plans.
func TestSweepDetectsBrokenDuplexRepair(t *testing.T) {
	opts := Options{
		Seed:        1,
		Ops:         80,
		PerPoint:    3,
		Points:      []fault.Point{fault.PointLogWritePrimary, fault.PointLogReadPrimary},
		BreakDuplex: true,
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("sweep found no violations with the duplex fallback disabled — the checker has no teeth")
	}
	v := res.Violations[0]
	if v.Plan.String() == "" || len(v.Plan.Rules) == 0 {
		t.Fatalf("violation carries no reproducing plan: %+v", v)
	}
	if !strings.Contains(v.Desc, "bad sector") {
		t.Logf("violation (informational): %s", v)
	}

	// The reproducer must deterministically replay: same plan, sabotage
	// on -> violation again; sabotage off -> the fallback repairs it.
	broken := opts
	broken.Points = nil
	if rep := RunPlans(broken, []fault.Plan{v.Plan}); len(rep.Violations) == 0 {
		t.Fatalf("plan %q did not reproduce its violation (fired=%d)", v.Plan.String(), rep.PlanStats[0].Fired)
	}
	fixed := broken
	fixed.BreakDuplex = false
	if rep := RunPlans(fixed, []fault.Plan{v.Plan}); len(rep.Violations) != 0 {
		t.Fatalf("plan %q violates even with the duplex fallback enabled: %s (fired=%d)", v.Plan.String(), rep.Violations[0], rep.PlanStats[0].Fired)
	}
}

// TestRunPlansLedger checks the report of given plans: its counters
// agree with the per-plan ledger, its JSON carries exactly the report's
// keys, and a violation's plan reads back as its reproducer.
func TestRunPlansLedger(t *testing.T) {
	var plans []fault.Plan
	for _, s := range []string{"seed=1;slb.append@20:crash", "seed=1;log.write.primary@3:corrupt"} {
		pl, err := fault.ParsePlan(s)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, pl)
	}
	// With the duplex fallback sabotaged the crash plan still passes and
	// the corrupted primary page is a violation.
	res := RunPlans(Options{Seed: 1, Ops: 40, BreakDuplex: true}, plans)
	if res.PlansRun != 2 || res.RulesFired != 2 || res.CrashesFired != 1 || res.Depth != 1 {
		t.Fatalf("plans_run=%d rules_fired=%d crashes_fired=%d depth=%d, want 2, 2, 1, 1",
			res.PlansRun, res.RulesFired, res.CrashesFired, res.Depth)
	}
	if st := res.PlanStats[0]; st.Plan != plans[0].String() || st.Fired != 1 || st.Violation != "" {
		t.Fatalf("crash plan's ledger entry %+v disagrees with crashes_fired=1", st)
	}
	if len(res.Violations) != 1 || res.PlanStats[1].Violation != res.Violations[0].Desc {
		t.Fatalf("violations %v, plans[1].violation %q: want the corrupt plan's one violation",
			res.Violations, res.PlanStats[1].Violation)
	}

	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(top))
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"baseline_hits", "chains_fired", "crashes_fired", "depth", "detection_totals",
		"livelocks", "mutations_fired", "plans", "plans_run", "rules_fired", "seed", "violations"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("report keys %v, want %v", keys, want)
	}
	var vios []struct {
		Plan string `json:"plan"`
	}
	if err := json.Unmarshal(top["violations"], &vios); err != nil {
		t.Fatal(err)
	}
	if pl, err := fault.ParsePlan(vios[0].Plan); err != nil || pl.String() != plans[1].String() {
		t.Fatalf("violation plan %q does not read back as %q (err %v)", vios[0].Plan, plans[1].String(), err)
	}
}

// TestSampleHits checks the hit-sampling shape: bounds respected, first
// and last hits always included.
func TestSampleHits(t *testing.T) {
	got := sampleHits(3, 8)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("sampleHits(3, 8) = %v", got)
	}
	got = sampleHits(1000, 5)
	if len(got) != 5 || got[0] != 1 || got[len(got)-1] != 1000 {
		t.Fatalf("sampleHits(1000, 5) = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("sampleHits not strictly increasing: %v", got)
		}
	}
}
