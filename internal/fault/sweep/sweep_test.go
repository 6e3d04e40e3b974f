package sweep

import (
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
	if stat, vio := Replay(broken, v.Plan); vio == nil {
		t.Fatalf("plan %q did not reproduce its violation (fired=%d)", v.Plan.String(), stat.Fired)
	}
	fixed := broken
	fixed.BreakDuplex = false
	if stat, vio := Replay(fixed, v.Plan); vio != nil {
		t.Fatalf("plan %q violates even with the duplex fallback enabled: %s (fired=%d)", v.Plan.String(), vio, stat.Fired)
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
