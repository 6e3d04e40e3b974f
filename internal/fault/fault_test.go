package fault

import (
	"bytes"
	"math/rand"
	"testing"

	"mmdb/internal/metrics"
)

func TestPlanStringRoundTrip(t *testing.T) {
	plans := []Plan{
		{Seed: 1},
		{Seed: 42, Rules: []Rule{{Point: PointLogWritePrimary, Hit: 3, Act: ActCrashBefore, Torn: -1}}},
		{Seed: -7, Rules: []Rule{
			{Point: PointCkptWrite, Hit: 2, Count: 3, Act: ActIOErr, Torn: -1},
			{Point: PointStableAppend, Hit: 5, Act: ActCrashTorn, Torn: 17},
			{Point: PointLogReadMirror, Hit: 1, Count: -1, Act: ActCorrupt, Torn: -1},
			{Point: PointLogWriteMirror, Hit: 9, Act: ActCrashAfter, Torn: -1},
		}},
	}
	for _, p := range plans {
		s := p.String()
		got, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", s, err)
		}
		if got.String() != s {
			t.Fatalf("round trip mismatch: %q -> %q", s, got.String())
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"nonsense",
		"seed=x",
		"seed=1;p@0:crash",
		"seed=1;p:crash",
		"seed=1;p@1:blowup",
		"seed=1;p@1+0:crash",
		"seed=1;p@1:crash-torn:-3",
		"seed=1;p@1:crash>",
		"seed=1;>p@1:crash",
		"seed=1;p@1:crash>,p@2:crash",
	} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) unexpectedly succeeded", s)
		}
	}
}

// TestPlanRoundTripProperty generates random multi-stage plans —
// including mutation acts and the chained-arming '>' syntax — and
// checks ParsePlan/String round-trip exactly.
func TestPlanRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	points := AllPoints()
	acts := []Act{ActCrashBefore, ActCrashAfter, ActCrashTorn, ActIOErr,
		ActCorrupt, ActMutFlip, ActMutZero, ActMutTrunc, ActMutSplice}
	randRule := func() Rule {
		r := Rule{
			Point: points[rng.Intn(len(points))],
			Hit:   1 + rng.Intn(500),
			Act:   acts[rng.Intn(len(acts))],
			Torn:  -1,
		}
		switch rng.Intn(3) {
		case 1:
			r.Count = 2 + rng.Intn(9)
		case 2:
			r.Count = -1
		}
		if (r.Act == ActCrashTorn || r.Act.IsMutation()) && rng.Intn(2) == 0 {
			r.Torn = rng.Intn(256)
		}
		return r
	}
	for i := 0; i < 500; i++ {
		p := Plan{Seed: rng.Int63n(1 << 40)}
		if rng.Intn(8) > 0 {
			nStage := 1 + rng.Intn(3)
			for s := 0; s < nStage; s++ {
				var stage []Rule
				for n := 1 + rng.Intn(3); n > 0; n-- {
					stage = append(stage, randRule())
				}
				if s == 0 {
					p.Rules = stage
				} else {
					p.Then = append(p.Then, stage)
				}
			}
		}
		s := p.String()
		got, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", s, err)
		}
		if got.String() != s {
			t.Fatalf("round trip mismatch: %q -> %q", s, got.String())
		}
		if got.Depth() != p.Depth() {
			t.Fatalf("depth changed in round trip: %q: %d -> %d", s, p.Depth(), got.Depth())
		}
	}
}

func TestMutationDeterministicAndDetectable(t *testing.T) {
	for _, act := range []Act{ActMutFlip, ActMutZero, ActMutTrunc, ActMutSplice} {
		mk := func() *Injector {
			return NewInjector(Plan{Seed: 7, Rules: []Rule{
				{Point: PointStableAppend, Hit: 2, Act: act, Torn: -1},
			}})
		}
		payload := bytes.Repeat([]byte{0xA5}, 64)
		a, b := mk(), mk()
		a.Check(PointStableAppend, len(payload))
		b.Check(PointStableAppend, len(payload))
		da := a.Check(PointStableAppend, len(payload))
		db := b.Check(PointStableAppend, len(payload))
		if da.Err != nil || da.MarkBad || !da.Mutated() {
			t.Fatalf("%s: mutation decision wrong: %+v", act, da)
		}
		if da.ApplyBytes(len(payload)) != len(payload) {
			t.Fatalf("%s: mutation must let the op apply fully", act)
		}
		ma, mb := da.MutateBytes(payload), db.MutateBytes(payload)
		if !bytes.Equal(ma, mb) {
			t.Fatalf("%s: mutation not deterministic", act)
		}
		if bytes.Equal(ma, payload) {
			t.Fatalf("%s: mutation left payload intact", act)
		}
		if &ma[0] == &payload[0] {
			t.Fatalf("%s: mutation aliases its input", act)
		}
		if a.Crashed() {
			t.Fatalf("%s: mutation must not crash the machine", act)
		}
	}
	// Pinned arguments: trunc keeps exactly arg bytes, zero wipes a run
	// of exactly arg bytes.
	in := NewInjector(Plan{Seed: 1, Rules: []Rule{
		{Point: PointCkptWrite, Hit: 1, Act: ActMutTrunc, Torn: 10},
		{Point: PointCkptWrite, Hit: 2, Act: ActMutZero, Torn: 4},
	}})
	p := bytes.Repeat([]byte{0xFF}, 32)
	if got := in.Check(PointCkptWrite, 32).MutateBytes(p); len(got) != 10 {
		t.Fatalf("trunc:10 kept %d bytes", len(got))
	}
	if got := in.Check(PointCkptWrite, 32).MutateBytes(p); bytes.Count(got, []byte{0}) != 4 {
		t.Fatalf("zero:4 zeroed %d bytes", bytes.Count(got, []byte{0}))
	}
}

// TestChainedStageArming pins the depth-2 semantics: the second stage
// arms only once every first-stage rule fires, and its hit indexes are
// relative to the arming moment.
func TestChainedStageArming(t *testing.T) {
	in := NewInjector(Plan{Seed: 1,
		Rules: []Rule{{Point: PointCkptWrite, Hit: 2, Act: ActMutFlip, Torn: -1}},
		Then:  [][]Rule{{{Point: PointSLBAppend, Hit: 3, Act: ActCrashBefore}}},
	})
	// Stage 2 must be dormant before stage 1 fires, no matter how many
	// slb.append hits accumulate.
	for i := 0; i < 10; i++ {
		if d := in.Check(PointSLBAppend, 8); d.Err != nil {
			t.Fatalf("stage-2 rule fired before stage 1: %+v", d)
		}
	}
	in.Check(PointCkptWrite, 8) // hit 1: no fire
	if d := in.Check(PointCkptWrite, 8); !d.Mutated() {
		t.Fatalf("stage-1 rule did not fire: %+v", d)
	}
	// Now stage 2 is armed with hits counted from here: 2 clean hits,
	// then the crash on the 3rd — the 13th absolute hit.
	for i := 0; i < 2; i++ {
		if d := in.Check(PointSLBAppend, 8); d.Err != nil {
			t.Fatalf("relative hit %d unexpectedly faulted: %v", i+1, d.Err)
		}
	}
	if d := in.Check(PointSLBAppend, 8); !IsCrash(d.Err) {
		t.Fatalf("relative hit 3 should crash: %+v", d)
	}
	if !in.Crashed() {
		t.Fatal("injector not crashed")
	}
	// The chain state survives ClearCrash, like rules do.
	in.ClearCrash()
	if d := in.Check(PointSLBAppend, 8); d.Err != nil {
		t.Fatalf("spent stage-2 rule fired again: %+v", d)
	}
}

func TestChainedStageCountersWired(t *testing.T) {
	sub := metrics.NewRegistry().Subsystem("fault")
	armed := sub.Counter("armed", "rules", "")
	mutArmed := sub.Counter("mutations_armed", "rules", "")
	mutFired := sub.Counter("mutations_fired", "firings", "")
	in := NewInjector(Plan{Seed: 3,
		Rules: []Rule{{Point: PointStableAppend, Hit: 1, Act: ActMutSplice, Torn: -1}},
		Then:  [][]Rule{{{Point: PointStableAppend, Hit: 1, Act: ActMutZero, Torn: -1}}},
	})
	in.SetCounters(Counters{Armed: armed, MutationsArmed: mutArmed, MutationsFired: mutFired})
	if armed.Value() != 1 || mutArmed.Value() != 1 {
		t.Fatalf("pre-fire armed=%d mutations_armed=%d, want 1/1", armed.Value(), mutArmed.Value())
	}
	if d := in.Check(PointStableAppend, 16); !d.Mutated() {
		t.Fatalf("stage-1 splice did not fire: %+v", d)
	}
	if armed.Value() != 2 || mutArmed.Value() != 2 {
		t.Fatalf("stage-2 arming not counted: armed=%d mutations_armed=%d", armed.Value(), mutArmed.Value())
	}
	if d := in.Check(PointStableAppend, 16); !d.Mutated() {
		t.Fatalf("stage-2 zero did not fire: %+v", d)
	}
	if mutFired.Value() != 2 {
		t.Fatalf("mutations_fired=%d, want 2", mutFired.Value())
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	d := in.Check(PointLogWritePrimary, 100)
	if d.Err != nil || d.ApplyBytes(100) != 100 || d.MarkBad {
		t.Fatalf("nil injector produced non-trivial decision: %+v", d)
	}
	if in.Crashed() {
		t.Fatal("nil injector reports crashed")
	}
	in.ForceCrash()
	in.Reset()
	in.ClearCrash()
	in.Arm(Plan{})
	in.Disarm()
	in.SetCounters(Counters{})
	if in.Hits() != nil || in.Triggered() != 0 {
		t.Fatal("nil injector has state")
	}
}

func TestCrashAtNthHit(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Rules: []Rule{
		{Point: PointLogWritePrimary, Hit: 3, Act: ActCrashBefore},
	}})
	for i := 1; i <= 2; i++ {
		if d := in.Check(PointLogWritePrimary, 10); d.Err != nil {
			t.Fatalf("hit %d unexpectedly faulted: %v", i, d.Err)
		}
	}
	d := in.Check(PointLogWritePrimary, 10)
	if !IsCrash(d.Err) || d.ApplyBytes(10) != 0 {
		t.Fatalf("hit 3 should crash-before, got %+v", d)
	}
	if !in.Crashed() {
		t.Fatal("injector not crashed after crash rule fired")
	}
	// All subsequent ops on any point fail while crashed.
	if d := in.Check(PointCkptWrite, 5); !IsCrash(d.Err) {
		t.Fatalf("post-crash op did not fail: %+v", d)
	}
	in.ClearCrash()
	if d := in.Check(PointLogWritePrimary, 10); d.Err != nil {
		t.Fatalf("rule should be spent after ClearCrash: %+v", d)
	}
}

// A crash rule's sink runs before I/O starts failing, but the crash is
// already reported to whoever the sink wakes: a waiter released by the
// sink and then asking Crashed must not take the machine for running.
func TestCrashVisibleFromItsSink(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Rules: []Rule{
		{Point: PointCkptAfterFence, Hit: 1, Act: ActCrashBefore},
	}})
	var crashed, ioFails bool
	in.SetEventSink(func(Point, int64, Act) {
		crashed = in.Crashed()
		ioFails = IsCrash(in.Check(PointCkptWrite, 1).Err)
	})
	in.Check(PointCkptAfterFence, 0)
	if !crashed || ioFails {
		t.Fatalf("inside the sink: Crashed %v (want true), I/O failing %v (want false)", crashed, ioFails)
	}
	in.ClearCrash()
	if in.Crashed() {
		t.Fatal("still crashed after ClearCrash")
	}
}

func TestFailOnceThenSucceed(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Rules: []Rule{
		{Point: PointCkptWrite, Hit: 1, Count: 2, Act: ActIOErr},
	}})
	for i := 1; i <= 2; i++ {
		d := in.Check(PointCkptWrite, 8)
		if !IsFault(d.Err) || IsCrash(d.Err) {
			t.Fatalf("hit %d: want transient error, got %+v", i, d)
		}
	}
	if d := in.Check(PointCkptWrite, 8); d.Err != nil {
		t.Fatalf("hit 3 should succeed: %+v", d)
	}
	if in.Crashed() {
		t.Fatal("transient error must not crash the machine")
	}
}

func TestTornWriteDeterministic(t *testing.T) {
	mk := func() *Injector {
		return NewInjector(Plan{Seed: 99, Rules: []Rule{
			{Point: PointStableAppend, Hit: 2, Act: ActCrashTorn, Torn: -1},
		}})
	}
	a, b := mk(), mk()
	a.Check(PointStableAppend, 64)
	b.Check(PointStableAppend, 64)
	da := a.Check(PointStableAppend, 64)
	db := b.Check(PointStableAppend, 64)
	if !IsCrash(da.Err) || !da.MarkBad {
		t.Fatalf("torn write decision wrong: %+v", da)
	}
	if da.ApplyBytes(64) != db.ApplyBytes(64) {
		t.Fatalf("torn size not deterministic: %d vs %d", da.ApplyBytes(64), db.ApplyBytes(64))
	}
	if n := da.ApplyBytes(64); n < 0 || n >= 64 {
		t.Fatalf("torn size out of range: %d", n)
	}
	// Explicit torn size is honored and clamped.
	in := NewInjector(Plan{Seed: 1, Rules: []Rule{
		{Point: PointStableAppend, Hit: 1, Act: ActCrashTorn, Torn: 17},
	}})
	if d := in.Check(PointStableAppend, 64); d.ApplyBytes(64) != 17 {
		t.Fatalf("explicit torn size ignored: %+v", d)
	}
}

func TestCorruptSucceedsButMarksBad(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Rules: []Rule{
		{Point: PointLogWriteMirror, Hit: 1, Act: ActCorrupt},
	}})
	d := in.Check(PointLogWriteMirror, 32)
	if d.Err != nil || !d.MarkBad || d.ApplyBytes(32) != 32 {
		t.Fatalf("corrupt decision wrong: %+v", d)
	}
	if in.Crashed() {
		t.Fatal("corrupt must not crash")
	}
}

func TestResetAndClearCrashSemantics(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Rules: []Rule{
		{Point: PointLogWritePrimary, Hit: 1, Act: ActCrashBefore},
		{Point: PointLogWritePrimary, Hit: 2, Act: ActCrashBefore},
	}})
	in.Check(PointLogWritePrimary, 1)
	if !in.Crashed() {
		t.Fatal("expected crash")
	}
	// ClearCrash keeps rules and hit counters: hit 2 fires next.
	in.ClearCrash()
	if d := in.Check(PointLogWritePrimary, 1); !IsCrash(d.Err) {
		t.Fatalf("second rule should fire after ClearCrash: %+v", d)
	}
	// Reset wipes everything.
	in.Reset()
	if in.Crashed() || in.Triggered() != 0 || len(in.Hits()) != 0 {
		t.Fatal("Reset did not clear state")
	}
	if d := in.Check(PointLogWritePrimary, 1); d.Err != nil {
		t.Fatalf("rules survived Reset: %+v", d)
	}
}

func TestForceCrashHaltsEverything(t *testing.T) {
	in := NewInjector(Plan{Seed: 1})
	in.ForceCrash()
	for _, p := range AllPoints() {
		if d := in.Check(p, 4); !IsCrash(d.Err) {
			t.Fatalf("point %s survived forced crash: %+v", p, d)
		}
	}
}

func TestCountersWired(t *testing.T) {
	sub := metrics.NewRegistry().Subsystem("fault")
	armed := sub.Counter("armed", "rules", "")
	trig := sub.Counter("triggered", "firings", "")
	torn := sub.Counter("torn", "writes", "")
	in := NewInjector(Plan{Seed: 5, Rules: []Rule{
		{Point: PointStableAppend, Hit: 1, Act: ActCrashTorn, Torn: 3},
		{Point: PointCkptWrite, Hit: 1, Act: ActIOErr},
	}})
	in.SetCounters(Counters{Armed: armed, Triggered: trig, TornWrites: torn})
	if armed.Value() != 2 {
		t.Fatalf("armed counter = %d, want 2", armed.Value())
	}
	in.Check(PointStableAppend, 10)
	in.ClearCrash()
	in.Check(PointCkptWrite, 10)
	if trig.Value() != 2 || torn.Value() != 1 {
		t.Fatalf("triggered=%d torn=%d, want 2/1", trig.Value(), torn.Value())
	}
	if in.Triggered() != 2 {
		t.Fatalf("Triggered() = %d, want 2", in.Triggered())
	}
}

func TestHitPointsSorted(t *testing.T) {
	in := NewInjector(Plan{Seed: 1})
	in.Check(PointStableAppend, 1)
	in.Check(PointCkptWrite, 1)
	in.Check(PointCkptWrite, 1)
	hp := in.HitPoints()
	if len(hp) != 2 || hp[0].Point != PointCkptWrite || hp[0].Hits != 2 || hp[1].Point != PointStableAppend {
		t.Fatalf("HitPoints wrong: %+v", hp)
	}
}
