// Package sweep is the automated crash-consistency checker built on the
// fault injector. It drives a deterministic transactional workload
// against an in-memory oracle of committed state, counts how often each
// fault point is hit across a full workload–crash–recover cycle, then
// re-runs the cycle once per enumerated fault plan — crashing, tearing,
// corrupting, or failing the instrumented operation at a chosen hit —
// and verifies after recovery that:
//
//   - every committed effect is durable (exact scan and index agreement
//     with the oracle, per relation);
//   - no uncommitted or deleted effect resurfaces;
//   - the whole database passes its structural audit (CheckConsistency);
//   - both log-disk copies agree after the duplexed-read repair pass
//     (§2.2), with every page recovery depends on intact on both;
//   - the recovered database still accepts and persists transactions.
//
// Any divergence is reported with the exact one-line fault.Plan that
// reproduces it (crashhunt -plan "...").
package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"mmdb"
	"mmdb/internal/fault"
	"mmdb/internal/heap"
	"mmdb/internal/simdisk"
	"mmdb/internal/wal"
)

// nRels is the number of relations in the workload: one T-Tree indexed,
// one Modified Linear Hash indexed, so both index REDO paths are swept.
const nRels = 2

// maxRecoveryCycles bounds crash-during-recovery power cycles. Every
// enumerated plan has a single finite rule, so recovery converges after
// at most one mid-recovery crash; the bound is a backstop against a
// recovery path that crashes the machine without consuming its rule.
const maxRecoveryCycles = 6

var sweepSchema = heap.Schema{
	{Name: "k", Type: heap.Int64},
	{Name: "v", Type: heap.Float64},
	{Name: "s", Type: heap.String},
}

type row struct {
	k int64
	v float64
	s string
}

// Options configure a sweep.
type Options struct {
	// Seed drives the workload generator and torn-write sizes.
	Seed int64
	// Ops is the number of workload transactions (default 400).
	Ops int
	// PerPoint is how many hit indexes are sampled per (point, action)
	// pair, spread evenly below the baseline hit count (default 8).
	PerPoint int
	// MaxPlans caps the number of enumerated plans; 0 means no cap.
	MaxPlans int
	// Points restricts the sweep to a subset of fault points; empty
	// means every defined point.
	Points []fault.Point
	// Depth selects the plan shape: 1 (the default) enumerates
	// single-rule plans exhaustively over the sampled hit grid; 2 draws
	// Budget chained two-stage plans from the pair space — a first-order
	// fault (crash, tear, I/O error, or byte mutation) whose firing arms
	// a second rule aimed at the recovery phase that follows, with hit
	// indexes counted relative to the arming instant.
	Depth int
	// Budget is how many depth-2 plans the seeded sampler draws (default
	// 200). Ignored at depth 1.
	Budget int
	// BreakDuplex disables the duplexed-read fallback (§2.2) before the
	// workload: a deliberate sabotage switch demonstrating that the
	// sweep detects a broken recovery path. It also disables
	// checkpointing and archiving for the cycle, so every committed
	// effect lives only in log pages and every page is
	// recovery-critical — otherwise a checkpoint image can supersede a
	// damaged page before recovery needs it and mask the sabotage.
	BreakDuplex bool
	// LoseCkptDisk turns every crash of the cycle into a media failure
	// (§2.6): the checkpoint disk set is failed before each recovery,
	// which then runs through mmdb.RecoverFromMediaFailure — every image
	// lost, every partition restored from archive ∪ log window ∪ bin and
	// re-imaged — under the same plans and the same invariants.
	LoseCkptDisk bool
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.Ops <= 0 {
		o.Ops = 400
	}
	if o.PerPoint <= 0 {
		o.PerPoint = 8
	}
	if o.Depth <= 0 {
		o.Depth = 1
	}
	if o.Budget <= 0 {
		o.Budget = 200
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Violation is one detected crash-consistency failure, with the plan
// that reproduces it.
type Violation struct {
	// Plan encodes in JSON as its one-line reproducer string.
	Plan fault.Plan `json:"plan"`
	Desc string     `json:"desc"`
	// Trace is the pre-crash flight-recorder timeline recovered from
	// stable memory on the cycle's last restart: the exact event
	// sequence leading up to the injected crash, one formatted line per
	// event. Empty when the plan failed before any recovery happened.
	Trace []string `json:"trace,omitempty"`
}

func (v Violation) String() string {
	return fmt.Sprintf("plan %q: %s", v.Plan.String(), v.Desc)
}

// Detection tallies the corruption-detection counters a plan's cycle
// raised across every database instance it powered up: the evidence
// that damaged bytes were caught by a replay-side check rather than
// silently applied.
type Detection struct {
	// QuarantinedRecords / CorruptDetected are the restart-side record
	// and image quarantine counters (restart/quarantined_records,
	// restart/corrupt_records_detected).
	QuarantinedRecords int64 `json:"quarantined_records"`
	CorruptDetected    int64 `json:"corrupt_records_detected"`
	// DuplexFallbacks / DuplexRepairs are §2.2 mirror fallbacks and
	// copy repairs (fault/duplex_fallbacks, fault/duplex_repairs).
	DuplexFallbacks int64 `json:"duplex_fallbacks"`
	DuplexRepairs   int64 `json:"duplex_repairs"`
	// HeatSnapshotRejects counts rejected heat-snapshot generations
	// (heat/snapshot_rejected).
	HeatSnapshotRejects int64 `json:"heat_snapshot_rejects"`
	// CkptVerifyFailed counts checkpoint images that failed write-verify
	// (checkpoint/verify_failed).
	CkptVerifyFailed int64 `json:"ckpt_verify_failed"`
	// ImagesQuarantined counts whole checkpoint images rejected at read
	// time — stale catalog track or envelope-checksum failure — and
	// replaced by the partition's history (restart/images_quarantined).
	ImagesQuarantined int64 `json:"images_quarantined"`
	// ArchiveRebuilds / ArchiveRebuildFailed count partition rebuilds
	// served from the archive tier and rebuild attempts that degraded to
	// an announced-empty image (archive/rebuilds, archive/rebuild_failed).
	ArchiveRebuilds      int64 `json:"archive_rebuilds"`
	ArchiveRebuildFailed int64 `json:"archive_rebuild_failed"`
	// TornTailCuts counts undecodable bin-tail suffixes cut at restart
	// (restart/torn_tail_cuts). A cut is either the crash's own torn
	// final append or tail-truncating rot; the two are byte-identical,
	// so the cut counts as detection evidence for mutation plans.
	TornTailCuts int64 `json:"torn_tail_cuts"`
}

func (d *Detection) add(o Detection) {
	d.QuarantinedRecords += o.QuarantinedRecords
	d.CorruptDetected += o.CorruptDetected
	d.DuplexFallbacks += o.DuplexFallbacks
	d.DuplexRepairs += o.DuplexRepairs
	d.HeatSnapshotRejects += o.HeatSnapshotRejects
	d.CkptVerifyFailed += o.CkptVerifyFailed
	d.ImagesQuarantined += o.ImagesQuarantined
	d.ArchiveRebuilds += o.ArchiveRebuilds
	d.ArchiveRebuildFailed += o.ArchiveRebuildFailed
	d.TornTailCuts += o.TornTailCuts
}

// Total is the number of detection events across every channel.
// Archive rebuilds are repair, not detection, and every rebuild comes
// with an images_quarantined event, so they are deliberately left out
// to avoid double counting.
func (d Detection) Total() int64 {
	return d.QuarantinedRecords + d.CorruptDetected + d.DuplexFallbacks +
		d.DuplexRepairs + d.HeatSnapshotRejects + d.CkptVerifyFailed +
		d.ImagesQuarantined + d.TornTailCuts
}

// PlanStat is the per-plan record of one executed cycle.
type PlanStat struct {
	// Plan is the one-line reproducer string.
	Plan string `json:"plan"`
	// Fired is how many rule firings the plan achieved (0 = the fault
	// never triggered; its hit index fell outside this cycle's path).
	Fired int64 `json:"fired"`
	// PowerCycles is how many times the machine was power-cycled after
	// the initial crash before recovery converged (1 = recovery
	// succeeded first try; more means faults hit the restart path).
	PowerCycles int `json:"power_cycles"`
	// Detection tallies the corruption-detection counters the cycle
	// raised; for mutation plans a zero here with committed effects
	// missing is the silent-corruption violation.
	Detection Detection `json:"detection"`
	// TolerableLosses is the number of committed effects whose loss was
	// announced by detection counters and therefore tolerated (only
	// ever non-zero for plans with mutation acts).
	TolerableLosses int `json:"tolerable_losses,omitempty"`
	// Livelock records that the plan's power cycles never converged.
	Livelock bool `json:"livelock,omitempty"`
	// Violation is the failure description, empty when the plan passed.
	Violation string `json:"violation,omitempty"`
}

// Result is the ledger of a run of plans; crashhunt -json writes it
// as is.
type Result struct {
	// Seed is the workload seed (Options.Seed).
	Seed int64 `json:"seed"`
	// Depth is Options.Depth, or the depth of the deepest plan run if
	// that is greater.
	Depth int `json:"depth"`
	// PlansRun counts fault plans executed (excluding the baseline).
	PlansRun int `json:"plans_run"`
	// RulesFired counts plans whose rule actually fired.
	RulesFired int `json:"rules_fired"`
	// CrashesFired counts plans whose crash rule fired: the number of
	// distinct (point, hit, action) crash sites the sweep exercised.
	CrashesFired int `json:"crashes_fired"`
	// MutationsFired counts plans in which a byte-mutation rule fired.
	MutationsFired int `json:"mutations_fired"`
	// ChainsFired counts depth-2 plans whose second stage fired: both
	// the arming fault and the chained recovery-phase fault landed.
	ChainsFired int `json:"chains_fired"`
	// Livelocks counts plans whose power cycles never converged (each
	// is also reported as a violation).
	Livelocks int `json:"livelocks"`
	// BaselineHits is the per-point hit count of the fault-free cycle,
	// the space the plans were sampled from; empty when the plans were
	// given rather than enumerated.
	BaselineHits map[fault.Point]int64 `json:"baseline_hits"`
	// Detection sums every plan's detection ledger: the sweep-wide
	// evidence totals (quarantines, duplex fallbacks, image rebuilds).
	Detection Detection `json:"detection_totals"`
	// PlanStats is the per-plan ledger, in execution order.
	PlanStats []PlanStat `json:"plans"`
	// Violations are the detected failures, each with its reproducer.
	Violations []Violation `json:"violations"`
}

// Config returns the small-geometry database configuration the sweep
// uses: tiny pages and a short log window so a brief workload exercises
// page flushes, update-count and age checkpoints, archiving, and
// multi-page recovery replay.
func Config() mmdb.Config {
	cfg := mmdb.DefaultConfig()
	cfg.PartitionSize = 4 << 10
	cfg.LogPageSize = 512
	cfg.SLBBlockSize = 512
	cfg.UpdateThreshold = 24
	cfg.LogWindowPages = 48
	cfg.GracePages = 4
	cfg.CheckpointTracks = 512
	cfg.StableBytes = 8 << 20
	cfg.RecoveryWorkers = 0 // no background sweep: the warm-up phase demands recovery deterministically
	// The flight recorder rides along so every violation report carries
	// the pre-crash event timeline. Its ring writes bypass the fault
	// points (stablemem.Region is uninstrumented), so enabling it does
	// not shift plan hit counts.
	cfg.FlightRecorderBytes = 32 << 10
	return cfg
}

// Run executes a full sweep: baseline cycle, plan enumeration, then
// RunPlans over the enumerated plans.
func Run(opts Options) (*Result, error) {
	opts.defaults()

	// Baseline: an empty plan counts hits through a complete
	// workload–crash–recover–verify cycle. It must pass — a violation
	// here is a bug reachable without any fault at all.
	_, vio, hits := runPlan(&opts, fault.Plan{Seed: opts.Seed})
	if vio != nil {
		return nil, fmt.Errorf("sweep: baseline (fault-free) cycle failed: %s", vio.Desc)
	}

	var plans []fault.Plan
	if opts.Depth >= 2 {
		plans = enumerateDepth2(&opts, hits)
	} else {
		plans = enumerate(&opts, hits)
	}
	opts.Logf("sweep: baseline hit %d points, enumerated %d depth-%d plans",
		len(hits), len(plans), opts.Depth)
	res := RunPlans(opts, plans)
	res.BaselineHits = hits
	return res, nil
}

// RunPlans runs one cycle per plan, in order, and returns their
// ledger. Replaying a reproducer is RunPlans with that one plan.
func RunPlans(opts Options, plans []fault.Plan) *Result {
	opts.defaults()
	res := &Result{
		Seed:         opts.Seed,
		Depth:        opts.Depth,
		BaselineHits: map[fault.Point]int64{},
		PlanStats:    make([]PlanStat, 0, len(plans)),
		Violations:   []Violation{},
	}
	for i, pl := range plans {
		stat, vio, _ := runPlan(&opts, pl)
		res.PlansRun++
		res.Depth = max(res.Depth, pl.Depth())
		status := "idle"
		if stat.Fired > 0 {
			res.RulesFired++
			status = "fired"
			if pl.Rules[0].Act.IsCrash() {
				res.CrashesFired++
			}
			if hasMutationAct(pl) {
				res.MutationsFired++
			}
			if pl.Depth() >= 2 && stat.Fired >= int64(len(pl.Rules)+1) {
				res.ChainsFired++
				status = "chained"
			}
		}
		if stat.Livelock {
			res.Livelocks++
		}
		if vio != nil {
			res.Violations = append(res.Violations, *vio)
			status = "VIOLATION"
		}
		res.PlanStats = append(res.PlanStats, stat)
		res.Detection.add(stat.Detection)
		opts.Logf("sweep: [%d/%d] %s — %s", i+1, len(plans), pl.String(), status)
	}
	return res
}

// hasMutationAct reports whether any stage of the plan carries a
// byte-mutation act.
func hasMutationAct(p fault.Plan) bool {
	for _, r := range p.AllRules() {
		if r.Act.IsMutation() {
			return true
		}
	}
	return false
}

// firstStage is the single-rule grid: for every selected point, every
// meaningful action on it, at PerPoint hit indexes sampled evenly over
// the baseline hit count.
func firstStage(opts *Options, hits map[fault.Point]int64) []fault.Rule {
	points := opts.Points
	if len(points) == 0 {
		points = fault.AllPoints()
	}
	var rules []fault.Rule
	for _, p := range points {
		total := hits[p]
		if total == 0 {
			continue
		}
		for _, act := range actsFor(p) {
			for _, h := range sampleHits(total, opts.PerPoint) {
				rules = append(rules, fault.Rule{Point: p, Hit: int(h), Act: act, Torn: -1})
			}
		}
	}
	return rules
}

// enumerate builds the depth-1 plan list: one plan per firstStage rule,
// capped at MaxPlans.
func enumerate(opts *Options, hits map[fault.Point]int64) []fault.Plan {
	var plans []fault.Plan
	for _, rule := range firstStage(opts, hits) {
		if opts.MaxPlans > 0 && len(plans) >= opts.MaxPlans {
			break
		}
		plans = append(plans, fault.Plan{Seed: opts.Seed, Rules: []fault.Rule{rule}})
	}
	return plans
}

// actsFor returns the actions meaningful at a point.
func actsFor(p fault.Point) []fault.Act {
	switch p {
	case fault.PointStableAppend:
		// Byte mutations on the stable append are the nastiest rot in
		// the matrix: the damaged record rides the SLB into sort, replay,
		// and possibly a log page, with valid ECC everywhere — only the
		// record CRC can catch it. Flip damages content in place; trunc
		// shortens the stored record so every later record in the block
		// is misaligned (the quarantine must surrender the whole suffix).
		return []fault.Act{fault.ActCrashBefore, fault.ActCrashTorn, fault.ActCrashAfter,
			fault.ActMutFlip, fault.ActMutTrunc}
	case fault.PointSLBAppend:
		// Per-record chain append. Physical tearing is exercised one
		// level down at "stable.append"; here the interesting failures
		// are the whole-record ones around the chain bookkeeping.
		return []fault.Act{fault.ActCrashBefore, fault.ActCrashAfter, fault.ActIOErr}
	case fault.PointSLBStamp:
		// One hit per logged commit, between taking the commit number
		// and listing the chain: a crash leaves a gap in the sequence
		// that the sorter must not wait on, and a commit that must not
		// surface, since it was never acknowledged.
		return []fault.Act{fault.ActCrashBefore}
	case fault.PointLogWritePrimary:
		// flip/splice: ECC-valid rot on one spindle; the page checksum
		// must reject the copy and the duplexed read must fall back to
		// (and repair from) the mirror.
		return []fault.Act{fault.ActCrashBefore, fault.ActCrashTorn, fault.ActCrashAfter,
			fault.ActIOErr, fault.ActCorrupt, fault.ActMutFlip, fault.ActMutSplice}
	case fault.PointLogWriteMirror:
		return []fault.Act{fault.ActCrashBefore, fault.ActCrashTorn, fault.ActIOErr,
			fault.ActCorrupt, fault.ActMutFlip}
	case fault.PointCkptWrite:
		// flip/zero: the image rots between the partition copy and the
		// track; write-verify must fail the attempt before the catalog
		// switches to the damaged image.
		return []fault.Act{fault.ActCrashBefore, fault.ActCrashTorn, fault.ActCrashAfter,
			fault.ActIOErr, fault.ActMutFlip, fault.ActMutZero}
	case fault.PointLogReadPrimary, fault.PointLogReadMirror:
		return []fault.Act{fault.ActIOErr, fault.ActCorrupt}
	case fault.PointCkptRead:
		// flip/zero/trunc: checkpoint rot — the image was acknowledged
		// good at write time but comes back damaged under valid sector
		// ECC. The envelope checksum must quarantine the image and
		// recovery must rebuild the partition from its archived history
		// plus the log window; surrendering records here is a violation
		// (see lossTolerated).
		return []fault.Act{fault.ActIOErr,
			fault.ActMutFlip, fault.ActMutZero, fault.ActMutTrunc}
	case fault.PointCkptAfterFence, fault.PointCkptAfterImage, fault.PointCkptBeforeCommit:
		return []fault.Act{fault.ActCrashBefore, fault.ActIOErr}
	case fault.PointArchAppend:
		// Log-window rollover into the archive tier. A crash or error
		// here must leave the rolled pages on the log disk (drop happens
		// only after the archive sync succeeds), so the history stays
		// whole; appends are at-least-once and readers dedup by LSN.
		return []fault.Act{fault.ActCrashBefore, fault.ActCrashTorn,
			fault.ActCrashAfter, fault.ActIOErr}
	case fault.PointArchRead:
		// Archive reads only happen while rebuilding a quarantined
		// partition, so depth-1 baselines never hit this point; it earns
		// its keep as a chained second stage (see stage2Rules).
		return []fault.Act{fault.ActIOErr, fault.ActCorrupt}
	}
	return nil
}

// ---------------------------------------------------------------------
// Depth-2 plan sampling.
// ---------------------------------------------------------------------

// stage2Rules is the second-stage candidate grammar: faults aimed at
// the recovery phase that follows the first stage's firing. Hit indexes
// here are RELATIVE — the chained stage arms at the instant the first
// stage fires, and each rule's window is anchored at its point's hit
// count at that moment — so small indexes land squarely inside restart,
// replay, and the first post-recovery transactions regardless of how
// long the workload ran. The points are the ones recovery itself
// exercises: log reads (replay), checkpoint reads (image load), stable
// appends (drain, root rewrites, the probe transaction's REDO), and
// log writes (bin flushes during warm-up).
func stage2Rules() []fault.Rule {
	pts := []struct {
		p    fault.Point
		acts []fault.Act
	}{
		{fault.PointLogReadPrimary, []fault.Act{fault.ActCrashBefore, fault.ActIOErr}},
		{fault.PointLogReadMirror, []fault.Act{fault.ActCrashBefore, fault.ActIOErr}},
		{fault.PointCkptRead, []fault.Act{fault.ActCrashBefore, fault.ActIOErr,
			fault.ActMutFlip, fault.ActMutTrunc}},
		// Archive reads fire only inside a partition rebuild, which needs
		// a quarantined image first — exactly what a chained stage after a
		// ckpt.read mutation provides. Crashing or erroring mid-rebuild
		// must power-cycle into a clean retry, never a torn partition.
		{fault.PointArchRead, []fault.Act{fault.ActCrashBefore, fault.ActIOErr}},
		{fault.PointStableAppend, []fault.Act{fault.ActCrashBefore, fault.ActCrashTorn}},
		{fault.PointSLBAppend, []fault.Act{fault.ActCrashBefore}},
		{fault.PointLogWritePrimary, []fault.Act{fault.ActCrashBefore, fault.ActCrashTorn, fault.ActIOErr}},
		{fault.PointCkptWrite, []fault.Act{fault.ActCrashBefore, fault.ActIOErr}},
	}
	var out []fault.Rule
	for _, pa := range pts {
		for _, act := range pa.acts {
			for _, hit := range []int{1, 2, 4, 9} {
				out = append(out, fault.Rule{Point: pa.p, Hit: hit, Act: act, Torn: -1})
			}
		}
	}
	return out
}

// enumerateDepth2 draws opts.Budget chained two-stage plans from the
// (first-stage × second-stage) pair space with a seeded sampler. The
// first stage is a rule the depth-1 enumerator could have produced —
// any meaningful act at a baseline-hit point — and the second stage is
// drawn from stage2Rules. The pair space is far too large to enumerate
// (tens of thousands of pairs), so the sweep samples it reproducibly:
// the same seed and budget always yield the same plan list.
func enumerateDepth2(opts *Options, hits map[fault.Point]int64) []fault.Plan {
	first := firstStage(opts, hits)
	second := stage2Rules()
	if len(first) == 0 || len(second) == 0 {
		return nil
	}
	budget := opts.Budget
	if opts.MaxPlans > 0 && opts.MaxPlans < budget {
		budget = opts.MaxPlans
	}
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5eed2))
	seen := make(map[string]bool, budget)
	plans := make([]fault.Plan, 0, budget)
	for len(plans) < budget && len(seen) < len(first)*len(second) {
		pl := fault.Plan{
			Seed:  opts.Seed,
			Rules: []fault.Rule{first[rng.Intn(len(first))]},
			Then:  [][]fault.Rule{{second[rng.Intn(len(second))]}},
		}
		key := pl.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		plans = append(plans, pl)
	}
	return plans
}

// sampleHits picks up to per hit indexes in [1, total]: the first hit,
// then one every total/per hits. The last sample sits a step below the
// baseline count, which a plan's own run misses whenever it takes fewer
// checkpoints or page flushes than the baseline did. A total of at most
// per samples every hit.
func sampleHits(total int64, per int) []int64 {
	if total <= int64(per) {
		out := make([]int64, 0, total)
		for h := int64(1); h <= total; h++ {
			out = append(out, h)
		}
		return out
	}
	out := make([]int64, 0, per)
	for i := 0; i < per; i++ {
		out = append(out, 1+int64(i)*total/int64(per))
	}
	return out
}

// ---------------------------------------------------------------------
// One plan = one full cycle.
// ---------------------------------------------------------------------

type runner struct {
	opts *Options
	plan fault.Plan
	cfg  mmdb.Config
	inj  *fault.Injector
	rng  *rand.Rand

	rels    [nRels]*mmdb.Relation
	created [nRels]bool
	indexed [nRels]bool
	model   [nRels]map[mmdb.RowID]row
	ids     [nRels][]mmdb.RowID // deterministic pick order (commit order)
	nextKey int64

	hits map[fault.Point]int64
	// stat is the plan's ledger entry, filled in as the cycle runs. Its
	// Detection accumulates the counters of every database instance the
	// cycle powered up (each instance has a fresh metrics registry, so
	// per-instance snapshots sum cleanly).
	stat PlanStat
	// losses collects committed effects found missing during warm-up
	// and verification. For plans with mutation acts a loss is tolerable
	// — the rot destroyed a committed record — but ONLY if detection
	// counters prove the damage was caught; a loss with zero detection
	// events is silent corruption, the violation the mutation invariant
	// exists to catch. Plans without mutation acts never tolerate loss.
	losses []string
	// auditFailed means CheckConsistency failed under a mutation plan:
	// relation-level verification and the probe are skipped (the
	// database is degraded by announced loss), but the duplex and scrub
	// invariants still run and judgeLosses still demands detection.
	auditFailed bool
	// trace holds the most recently recovered flight-recorder timeline,
	// attached to any violation the rest of the cycle reports.
	trace []string
}

// collect folds one database instance's detection counters into the
// cycle tally. Call exactly once per instance, after its last activity.
func (r *runner) collect(db *mmdb.DB) {
	if db == nil {
		return
	}
	s := db.Metrics()
	restart := s.Subsystem("restart")
	faultS := s.Subsystem("fault")
	arch := s.Subsystem("archive")
	r.stat.Detection.add(Detection{
		QuarantinedRecords:   restart.Counter("quarantined_records"),
		CorruptDetected:      restart.Counter("corrupt_records_detected"),
		DuplexFallbacks:      faultS.Counter("duplex_fallbacks"),
		DuplexRepairs:        faultS.Counter("duplex_repairs"),
		HeatSnapshotRejects:  s.Subsystem("heat").Counter("snapshot_rejected"),
		CkptVerifyFailed:     s.Subsystem("checkpoint").Counter("verify_failed"),
		ImagesQuarantined:    restart.Counter("images_quarantined"),
		ArchiveRebuilds:      arch.Counter("rebuilds"),
		ArchiveRebuildFailed: arch.Counter("rebuild_failed"),
		TornTailCuts:         restart.Counter("torn_tail_cuts"),
	})
}

// lossTolerated reports whether the cycle's recorded losses are
// announced (detected) casualties of a mutation plan rather than silent
// corruption. Rot confined to checkpoint-image reads is never a
// tolerable loss: the archived history plus the resident log window
// still hold every committed effect from LSN 1, so recovery must
// rebuild the partition, not surrender records.
func (r *runner) lossTolerated() bool {
	if !hasMutationAct(r.plan) || r.stat.Detection.Total() == 0 {
		return false
	}
	return !mutationsOnlyAt(r.plan, fault.PointCkptRead)
}

// mutationsOnlyAt reports whether the plan carries mutation acts and
// every one of them targets point p.
func mutationsOnlyAt(pl fault.Plan, p fault.Point) bool {
	any := false
	for _, rule := range pl.AllRules() {
		if !rule.Act.IsMutation() {
			continue
		}
		if rule.Point != p {
			return false
		}
		any = true
	}
	return any
}

// ckptRotInvariant checks the repair side of a lost checkpoint image —
// one rotted track, or with LoseCkptDisk all of them: every image the
// cycle quarantined must have been rebuilt from the partition's
// archived history. A rebuild failure means a partition was degraded to
// an announced-empty image even though the archive held its history.
// (A fault that kills a rebuild mid-read leaves no quarantine behind:
// the image is counted with its outcome, and the retry starts over.)
func (r *runner) ckptRotInvariant() *Violation {
	if d := r.stat.Detection; d.ImagesQuarantined != d.ArchiveRebuilds || d.ArchiveRebuildFailed > 0 {
		return r.viof("%d checkpoint images quarantined, %d rebuilt from the archive, %d degraded to empty images",
			d.ImagesQuarantined, d.ArchiveRebuilds, d.ArchiveRebuildFailed)
	}
	return nil
}

// loss records one missing committed effect for the end-of-verify
// tolerance decision.
func (r *runner) loss(format string, args ...any) {
	r.losses = append(r.losses, fmt.Sprintf(format, args...))
}

// runPlan runs the plan's cycle and returns its ledger entry, its
// violation (nil when it passed) and the injector's per-point hit
// counts.
func runPlan(opts *Options, plan fault.Plan) (PlanStat, *Violation, map[fault.Point]int64) {
	r := &runner{
		opts: opts,
		plan: plan,
		stat: PlanStat{Plan: plan.String()},
		rng:  rand.New(rand.NewSource(opts.Seed)),
		inj:  fault.NewInjector(plan),
	}
	for i := range r.model {
		r.model[i] = map[mmdb.RowID]row{}
	}
	r.cfg = Config()
	if opts.BreakDuplex {
		// Keep all committed state in the log window: no checkpoints,
		// no archiving, so recovery must read back every page and a
		// damaged copy cannot hide behind a newer checkpoint image.
		r.cfg.UpdateThreshold = 1 << 30
		r.cfg.LogWindowPages = 1 << 20
	}
	r.cfg.FaultInjector = r.inj
	vio := r.run()
	if r.hits == nil {
		// The cycle failed before run's snapshot: the injector still
		// holds the plan's counts.
		r.hits, r.stat.Fired = r.inj.Hits(), r.inj.Triggered()
	}
	if vio != nil {
		r.stat.Violation = vio.Desc
	}
	return r.stat, vio, r.hits
}

func (r *runner) run() *Violation {
	db, err := mmdb.Open(r.cfg)
	if err != nil {
		return r.viof("open: %v", err)
	}
	if r.opts.BreakDuplex {
		db.Manager().Hardware().Log.SetDisableFallback(true)
	}
	if v := r.workload(db); v != nil {
		db.Crash()
		r.collect(db)
		return v
	}
	if !r.inj.Crashed() {
		db.WaitIdle()
	}
	hw := db.Crash()
	r.collect(db)
	r.inj.ClearCrash() // rules and hit counters stay armed: recovery-phase faults can fire

	db = nil
	for cycle := 0; ; cycle++ {
		if cycle >= maxRecoveryCycles {
			// The backstop tripped: recovery kept dying without ever
			// consuming the plan's rules. Flagged so the ledger can tell a
			// livelock from an ordinary divergence; still surfaced as a
			// violation — a recovery path that never converges is as
			// fatal as one that loses data.
			r.stat.Livelock = true
			return r.viof("sweep: recovery livelock: plan %q did not converge after %d power cycles",
				r.plan.String(), maxRecoveryCycles)
		}
		r.stat.PowerCycles = cycle + 1
		d, err := r.recover(hw)
		if err == nil {
			if ct := d.CrashTrace(); len(ct) > 0 {
				r.trace = r.trace[:0]
				for _, e := range ct {
					r.trace = append(r.trace, e.String())
				}
			}
		}
		if err != nil {
			if !fault.IsFault(err) {
				return r.viof("recover: %v", err)
			}
			// A fault hit the restart path itself; fired rules are
			// consumed, so a power-cycle retry converges. Restart may
			// have quarantined corruption before dying — fold the dead
			// instance's counters in, or a mutation whose damage restart
			// both detected and consumed (e.g. a quarantined stable-log
			// suffix, drained before the chained crash) would read as
			// silent loss.
			if d != nil {
				hw = d.Crash()
				r.collect(d)
			}
			r.inj.ClearCrash()
			continue
		}
		err = r.warm(d)
		// Rot can amputate whole structures — a quarantined catalog update
		// can orphan an index partition whose log records a checkpoint
		// already superseded — so the structural audit is allowed to fail
		// under a mutation plan. It is recorded as a loss: judgeLosses
		// still demands detection-counter evidence, and the duplex, scrub
		// and progress invariants below still apply. Row and probe
		// verification are skipped — the database is legitimately
		// degraded, not silently wrong.
		degraded := err != nil && !fault.IsCrash(err) && !r.inj.Crashed() && hasMutationAct(r.plan)
		if err == nil || degraded {
			// The plan stays armed until the instance is idle: the
			// checkpoints and sweep the warm-up left running can still hit
			// it, and a crash there is one more power cycle.
			d.WaitIdle()
			if !r.inj.Crashed() {
				if degraded {
					r.loss("post-recovery audit: %v", err)
					r.auditFailed = true
				}
				db = d
				break
			}
			err = fault.ErrCrashed
		}
		if fault.IsCrash(err) || r.inj.Crashed() {
			hw = d.Crash()
			r.collect(d)
			r.inj.ClearCrash()
			continue
		}
		d.Crash()
		r.collect(d)
		return r.viof("recovery warm-up: %v", err)
	}

	// Everything the plan was going to inject has had its chance;
	// snapshot the injector and disarm it so verification runs
	// fault-free.
	r.hits = r.inj.Hits()
	r.stat.Fired = r.inj.Triggered()
	r.inj.Reset()

	v := r.verify(db)
	// Fold in the final instance's detection counters before judging
	// losses: the bulk of quarantine events happen during this
	// instance's demand recovery (warm) and the verify scrub.
	r.collect(db)
	if v == nil {
		v = r.judgeLosses()
	}
	if v == nil {
		v = r.ckptRotInvariant()
	}
	if v != nil {
		db.Crash()
		return v
	}
	if err := db.Close(); err != nil {
		return r.viof("close: %v", err)
	}
	return nil
}

// recover powers the machine back on: the §2.5 restart, or with
// Options.LoseCkptDisk the §2.6 one on a replaced checkpoint disk set.
func (r *runner) recover(hw *mmdb.Hardware) (*mmdb.DB, error) {
	if !r.opts.LoseCkptDisk {
		return mmdb.Recover(hw, r.cfg)
	}
	hw.Ckpt.Fail()
	return mmdb.RecoverFromMediaFailure(hw, r.cfg)
}

// judgeLosses applies the mutation-detection invariant to the losses
// recorded during warm-up and verification: a committed effect may go
// missing only when the plan rots bytes AND the rot was demonstrably
// detected (quarantine, duplex fallback, write-verify, or snapshot
// rejection counters moved). Silent loss — or any loss under a plan
// with no mutation acts — is a violation.
func (r *runner) judgeLosses() *Violation {
	if len(r.losses) == 0 {
		return nil
	}
	if r.lossTolerated() {
		r.stat.TolerableLosses = len(r.losses)
		return nil
	}
	if hasMutationAct(r.plan) {
		return r.viof("silently applied mutation: %d committed effects missing with zero detection events (first: %s)",
			len(r.losses), r.losses[0])
	}
	return r.viof("%s", r.losses[0])
}

// tolerable errors abort the transaction without indicting the system:
// injected faults, the crash itself, and deadlocks against the
// checkpointer's share locks.
func (r *runner) tolerable(err error) bool {
	return fault.IsFault(err) || errors.Is(err, mmdb.ErrDeadlock)
}

// workload runs the deterministic transaction mix, folding every
// successfully committed transaction — and only those — into the
// oracle. It stops as soon as the machine crashes.
func (r *runner) workload(db *mmdb.DB) *Violation {
	// Schema setup is part of the fault-exposed workload: catalog
	// creation commits through the same stable log as everything else.
	for i := 0; i < nRels; i++ {
		if r.inj.Crashed() {
			return nil
		}
		rel, err := db.CreateRelation(fmt.Sprintf("rel%d", i), sweepSchema)
		if err != nil {
			if r.tolerable(err) {
				return nil
			}
			return r.viof("create relation %d: %v", i, err)
		}
		r.rels[i] = rel
		r.created[i] = true
		kind := mmdb.KindTTree
		if i%2 == 1 {
			kind = mmdb.KindLinHash
		}
		if _, err := db.CreateIndex(rel, "by_k", "k", kind, 8); err != nil {
			if r.tolerable(err) {
				return nil
			}
			return r.viof("create index %d: %v", i, err)
		}
		r.indexed[i] = true
	}
	for txi := 0; txi < r.opts.Ops; txi++ {
		if r.inj.Crashed() {
			return nil
		}
		if v := r.oneTxn(db); v != nil {
			return v
		}
		if txi%8 == 7 && !r.inj.Crashed() {
			db.WaitIdle()
		}
	}
	return nil
}

func (r *runner) oneTxn(db *mmdb.DB) *Violation {
	rng := r.rng
	ri := rng.Intn(nRels)
	if !r.created[ri] {
		return nil
	}
	rel := r.rels[ri]
	tx := db.Begin()
	type sop struct {
		id  mmdb.RowID
		del bool
		row row
	}
	var staged []sop
	touched := map[mmdb.RowID]bool{}
	ok := true
	nOps := 1 + rng.Intn(5)
	for op := 0; op < nOps && ok; op++ {
		if r.inj.Crashed() {
			// Abort to release locks (pure volatile work, safe on a
			// halted machine) so background lock waiters cannot wedge
			// the crash shutdown.
			_ = tx.Abort()
			return nil
		}
		switch c := rng.Intn(10); {
		case c < 5: // insert
			nr := row{k: r.nextKey, v: float64(r.nextKey) / 3, s: fmt.Sprintf("s%d", r.nextKey)}
			r.nextKey++
			id, err := tx.Insert(rel, heap.Tuple{nr.k, nr.v, nr.s})
			if err != nil {
				if !r.tolerable(err) {
					return r.viof("insert: %v", err)
				}
				ok = false
				break
			}
			staged = append(staged, sop{id: id, row: nr})
			touched[id] = true
		case c < 8: // update a committed row
			id, found := r.pickID(ri, touched)
			if !found {
				continue
			}
			cur := r.model[ri][id]
			cur.v++
			if err := tx.Update(rel, id, map[string]any{"v": cur.v}); err != nil {
				if !r.tolerable(err) {
					return r.viof("update: %v", err)
				}
				ok = false
				break
			}
			staged = append(staged, sop{id: id, row: cur})
			touched[id] = true
		default: // delete a committed row
			id, found := r.pickID(ri, touched)
			if !found {
				continue
			}
			if err := tx.Delete(rel, id); err != nil {
				if !r.tolerable(err) {
					return r.viof("delete: %v", err)
				}
				ok = false
				break
			}
			staged = append(staged, sop{id: id, del: true})
			touched[id] = true
		}
	}
	if r.inj.Crashed() {
		_ = tx.Abort()
		return nil
	}
	if !ok || rng.Intn(6) == 0 {
		_ = tx.Abort()
		return nil
	}
	if err := tx.Commit(); err != nil {
		if !r.tolerable(err) {
			return r.viof("commit: %v", err)
		}
		_ = tx.Abort()
		return nil
	}
	// Commit returned success, so the REDO chain is on the stable
	// committed list: these effects are durable by the paper's
	// contract, and the oracle records them as such. (A crash racing
	// this very instant changes nothing — restart re-sorts committed
	// chains.)
	for _, s := range staged {
		if s.del {
			delete(r.model[ri], s.id)
			r.removeID(ri, s.id)
		} else {
			if _, exists := r.model[ri][s.id]; !exists {
				r.ids[ri] = append(r.ids[ri], s.id)
			}
			r.model[ri][s.id] = s.row
		}
	}
	return nil
}

// pickID chooses a committed row not yet touched by this transaction,
// deterministically (ids keep commit order; map iteration would not be
// reproducible).
func (r *runner) pickID(ri int, touched map[mmdb.RowID]bool) (mmdb.RowID, bool) {
	ids := r.ids[ri]
	if len(ids) == 0 {
		return mmdb.RowID{}, false
	}
	start := r.rng.Intn(len(ids))
	for i := 0; i < len(ids); i++ {
		id := ids[(start+i)%len(ids)]
		if !touched[id] {
			return id, true
		}
	}
	return mmdb.RowID{}, false
}

func (r *runner) removeID(ri int, id mmdb.RowID) {
	ids := r.ids[ri]
	for i := range ids {
		if ids[i] == id {
			r.ids[ri] = append(ids[:i], ids[i+1:]...)
			return
		}
	}
}

// warm demand-recovers the whole database with the plan's rules still
// armed, so faults whose hit indexes fall in the recovery phase fire.
// Transient injected errors are retried (their rules expire); a crash
// propagates so the caller can power-cycle.
func (r *runner) warm(db *mmdb.DB) error {
	const attempts = 5
	var last error
	for a := 0; a < attempts; a++ {
		if r.inj.Crashed() {
			return fault.ErrCrashed
		}
		last = r.warmOnce(db)
		if last == nil {
			return nil
		}
		if fault.IsCrash(last) || r.inj.Crashed() {
			return fault.ErrCrashed
		}
		if !fault.IsFault(last) {
			return last
		}
	}
	return fmt.Errorf("still failing after %d attempts: %w", attempts, last)
}

func (r *runner) warmOnce(db *mmdb.DB) error {
	for i := 0; i < nRels; i++ {
		if !r.created[i] {
			continue
		}
		rel, err := db.GetRelation(fmt.Sprintf("rel%d", i))
		if err != nil {
			if fault.IsFault(err) {
				return err
			}
			if hasMutationAct(r.plan) {
				// The creation's REDO records may have been the rot's
				// casualty; record the loss and let judgeLosses demand
				// proof of detection.
				r.loss("committed relation rel%d missing after recovery: %v", i, err)
				r.created[i] = false
				continue
			}
			return fmt.Errorf("committed relation rel%d missing after recovery: %w", i, err)
		}
		r.rels[i] = rel
	}
	// CheckConsistency walks every partition of every relation and
	// index, demand-recovering each through the §2.5 path, and audits
	// all structural invariants while it is at it.
	return db.CheckConsistency()
}

// verify runs the fault-free post-recovery checks.
func (r *runner) verify(db *mmdb.DB) *Violation {
	mgr := db.Manager()
	hw := mgr.Hardware()

	// Progress (ROADMAP item 2's first invariant): the instance is idle,
	// so every checkpoint request has been served or abandoned. A bin
	// still pending, or still fenced, is a request nobody will serve.
	bins := mgr.BinStates()
	for _, bs := range bins {
		if bs.CkptPending || bs.FenceActive {
			return r.viof("bin %v checkpoint-pending=%v fenced=%v after WaitIdle", bs.PID, bs.CkptPending, bs.FenceActive)
		}
	}
	// Log scrub (§2.2, content-checked): read every page recovery still
	// depends on through the duplex pair with the page checksum layered
	// on top of the device ECC, so ECC-valid rot on the primary falls
	// back to — and is repaired from — the mirror, exactly like the
	// replay path.
	for _, bs := range bins {
		for _, lsn := range bs.Pages {
			pid := bs.PID
			if _, err := hw.Log.ReadChecked(lsn, func(b []byte) error {
				pg, derr := wal.DecodePage(b)
				if derr != nil {
					return derr
				}
				return pg.CheckPID(pid)
			}); err != nil {
				return r.viof("log page %d of %v unreadable through the duplex pair: %v", lsn, bs.PID, err)
			}
		}
	}
	// After repair, both copies of every needed page must be intact and
	// byte-identical.
	for _, bs := range bins {
		for _, lsn := range bs.Pages {
			pd, pbad, pok := hw.Log.Primary.PageState(lsn)
			md, mbad, mok := hw.Log.Mirror.PageState(lsn)
			if !pok || !mok || pbad || mbad {
				return r.viof("log page %d of %v not fully duplexed after repair (primary ok=%v bad=%v, mirror ok=%v bad=%v)",
					lsn, bs.PID, pok, pbad, mok, mbad)
			}
			if !bytes.Equal(pd, md) {
				if v := r.scrubDivergence(hw.Log, lsn, pd, md,
					fmt.Sprintf("page %d of %v", lsn, bs.PID)); v != nil {
					return v
				}
			}
		}
	}
	// Global duplex agreement: wherever both copies are intact they
	// must match. (A crash can leave one copy of an unacknowledged page
	// torn or missing — those pages are never read, and are excluded by
	// the intactness condition.)
	seen := map[simdisk.LSN]bool{}
	for _, lsn := range hw.Log.Primary.LSNs() {
		seen[lsn] = true
	}
	for _, lsn := range hw.Log.Mirror.LSNs() {
		seen[lsn] = true
	}
	lsns := make([]simdisk.LSN, 0, len(seen))
	for lsn := range seen {
		lsns = append(lsns, lsn)
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	for _, lsn := range lsns {
		pd, pbad, pok := hw.Log.Primary.PageState(lsn)
		md, mbad, mok := hw.Log.Mirror.PageState(lsn)
		if pok && mok && !pbad && !mbad && !bytes.Equal(pd, md) {
			if v := r.scrubDivergence(hw.Log, lsn, pd, md,
				fmt.Sprintf("page %d", lsn)); v != nil {
				return v
			}
		}
	}

	// A failed structural audit (mutation plans only) leaves no sound
	// footing for row-level checks or the probe; the loss is already
	// recorded and judged after verification.
	if r.auditFailed {
		return nil
	}

	// Committed state: exact agreement with the oracle.
	for i := 0; i < nRels; i++ {
		if !r.created[i] {
			continue
		}
		if v := r.verifyRelation(db, i); v != nil {
			return v
		}
	}

	// The recovered database must remain usable: one more transaction
	// through commit, read back.
	return r.probe(db)
}

// scrubDivergence resolves a byte divergence between two intact (valid
// ECC) copies of a log page. The device cannot arbitrate — only the
// page checksum can — so under a mutation plan, exactly one copy
// failing the content check is detected single-copy rot: the scrub
// rewrites it from its content-valid twin, completing the §2.2 repair
// for damage ECC alone cannot see. Any divergence without a mutation
// act in the plan, or one the checksum cannot arbitrate, is a
// violation.
func (r *runner) scrubDivergence(dl *simdisk.DuplexLog, lsn simdisk.LSN, pd, md []byte, desc string) *Violation {
	if !hasMutationAct(r.plan) {
		return r.viof("log disk copies diverge at %s", desc)
	}
	pOK := pageDecodes(pd)
	mOK := pageDecodes(md)
	switch {
	case pOK && !mOK:
		if err := dl.Mirror.WriteAt(lsn, pd); err != nil {
			return r.viof("repairing rotted mirror copy of %s: %v", desc, err)
		}
	case mOK && !pOK:
		if err := dl.Primary.WriteAt(lsn, md); err != nil {
			return r.viof("repairing rotted primary copy of %s: %v", desc, err)
		}
	default:
		return r.viof("log disk copies diverge at %s and the page checksum cannot arbitrate (primary valid=%v, mirror valid=%v)",
			desc, pOK, mOK)
	}
	return nil
}

func pageDecodes(b []byte) bool {
	_, err := wal.DecodePage(b)
	return err == nil
}

func (r *runner) verifyRelation(db *mmdb.DB, ri int) *Violation {
	rel := r.rels[ri]
	tx := db.Begin()
	defer tx.Abort()
	got := map[mmdb.RowID]row{}
	err := tx.Scan(rel, func(id mmdb.RowID, tup heap.Tuple) bool {
		got[id] = row{k: tup[0].(int64), v: tup[1].(float64), s: tup[2].(string)}
		return true
	})
	if err != nil {
		return r.viof("rel%d: scan after recovery: %v", ri, err)
	}
	for id, want := range r.model[ri] {
		g, present := got[id]
		if !present {
			// A missing committed row is a loss, judged at the end of
			// the cycle: tolerable only for a mutation plan with
			// detection events (the rot destroyed the row's REDO records
			// but announced itself); a hard violation otherwise.
			r.loss("rel%d: committed row %v lost", ri, id)
			continue
		}
		if g != want {
			// A stale value means the row's later update records were
			// quarantined — the same announced-loss judgment applies.
			r.loss("rel%d: row %v = %+v after recovery, want %+v", ri, id, g, want)
		}
	}
	if len(got) != len(r.model[ri]) {
		for id := range got {
			if _, present := r.model[ri][id]; !present {
				return r.viof("rel%d: uncommitted or deleted row %v resurrected", ri, id)
			}
		}
	}
	if r.indexed[ri] {
		idx := rel.Index("by_k")
		if idx == nil {
			if hasMutationAct(r.plan) {
				r.loss("rel%d: index by_k missing after recovery", ri)
				return nil
			}
			return r.viof("rel%d: index by_k missing after recovery", ri)
		}
		checked := 0
		for _, id := range r.ids[ri] {
			if checked >= 8 {
				break
			}
			checked++
			want := r.model[ri][id]
			if _, present := got[id]; !present {
				continue // already recorded as a lost row above
			}
			found := false
			err := tx.IndexLookup(idx, want.k, func(gid mmdb.RowID, _ heap.Tuple) bool {
				if gid == id {
					found = true
					return false
				}
				return true
			})
			if err != nil {
				return r.viof("rel%d: index lookup: %v", ri, err)
			}
			if !found {
				// The heap row survived but its index REDO record did
				// not: an announced loss under the same judgment.
				r.loss("rel%d: key %d (row %v) missing from index after recovery", ri, want.k, id)
			}
		}
		phantom := false
		if err := tx.IndexLookup(idx, int64(-1), func(mmdb.RowID, heap.Tuple) bool {
			phantom = true
			return false
		}); err != nil {
			return r.viof("rel%d: phantom-key lookup: %v", ri, err)
		}
		if phantom {
			return r.viof("rel%d: index hit for never-inserted key", ri)
		}
	}
	return nil
}

func (r *runner) probe(db *mmdb.DB) *Violation {
	ri := -1
	for i := 0; i < nRels; i++ {
		if r.created[i] {
			ri = i
			break
		}
	}
	if ri < 0 {
		return nil // crash landed before any schema committed; nothing to probe with
	}
	tx := db.Begin()
	nr := row{k: r.nextKey, v: 0.5, s: "probe"}
	id, err := tx.Insert(r.rels[ri], heap.Tuple{nr.k, nr.v, nr.s})
	if err != nil {
		_ = tx.Abort()
		return r.viof("probe insert on recovered database: %v", err)
	}
	if err := tx.Commit(); err != nil {
		return r.viof("probe commit on recovered database: %v", err)
	}
	tx2 := db.Begin()
	defer tx2.Abort()
	tup, err := tx2.Get(r.rels[ri], id)
	if err != nil {
		return r.viof("probe read-back: %v", err)
	}
	if tup[0].(int64) != nr.k {
		return r.viof("probe read-back returned wrong row")
	}
	return nil
}

func (r *runner) viof(format string, args ...any) *Violation {
	return &Violation{
		Plan:  r.plan,
		Desc:  fmt.Sprintf(format, args...),
		Trace: append([]string(nil), r.trace...),
	}
}
