// Package fault is the deterministic fault-injection subsystem of the
// recovery architecture's test harness. The paper's guarantees rest on
// hardware behaviors the simulation otherwise trusts blindly — duplexed
// log disks that mask bad sectors (§2.2), stable memory that survives
// arbitrary crashes, and a restart phase that must be correct no matter
// when the system dies — so this package lets tests and the crashhunt
// sweep die (or limp) at adversarially chosen points.
//
// The model:
//
//   - every instrumented hardware operation is a named fault Point
//     (e.g. "log.write.primary", "stable.append");
//   - an Injector counts hits per point and evaluates programmable
//     Rules: crash at the Nth hit of point P (before, after, or midway
//     through a write, tearing it at a byte boundary), fail N times
//     then succeed, or silently corrupt the medium;
//   - a Plan (seed + rules) is fully serialisable, so any failing sweep
//     run is reproducible from its one-line plan string;
//   - a crash is global: once a crash rule fires (or ForceCrash is
//     called), every subsequent instrumented operation fails with
//     ErrCrashed until Reset/ClearCrash — no I/O reaches any medium on
//     a halted machine.
//
// A nil *Injector is the zero-cost off state: every method is
// nil-receiver safe and hot paths pay a single branch.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mmdb/internal/metrics"
)

// Point names one instrumented hardware operation.
type Point string

// The fault-point catalog. See docs/FAULTS.md for what each point
// covers and which actions are meaningful on it.
const (
	// Duplexed log disk writes: one point per spindle, hit once per
	// page write (bin page flushes, catalog root pages, repairs).
	PointLogWritePrimary Point = "log.write.primary"
	PointLogWriteMirror  Point = "log.write.mirror"
	// Log disk reads: recovery replay and archive rollover.
	PointLogReadPrimary Point = "log.read.primary"
	PointLogReadMirror  Point = "log.read.mirror"
	// Checkpoint disk track I/O.
	PointCkptWrite Point = "ckpt.write"
	PointCkptRead  Point = "ckpt.read"
	// Stable memory block appends: SLB record writes and SLT bin page
	// buffer writes.
	PointStableAppend Point = "stable.append"
	// Stable Log Buffer stream operations: one "slb.append" hit per REDO
	// record written into a per-core log stream, and one "slb.stamp" hit
	// per logged commit, between taking its commit number and listing
	// its chain — a crash there leaves a gap in the commit sequence.
	// Separate points (rather than reusing "stable.append") so arming
	// them does not shift existing plan hit counts.
	PointSLBAppend Point = "slb.append"
	PointSLBStamp  Point = "slb.stamp"
	// Checkpoint transaction steps (§2.4): the dangerous windows
	// between fence, image write, and commit.
	PointCkptAfterFence   Point = "ckpt.after-fence"
	PointCkptAfterImage   Point = "ckpt.after-image"
	PointCkptBeforeCommit Point = "ckpt.before-commit"
	// Archive page store (§2.6): one "arch.append" hit per log page
	// appended during log-disk rollover, one "arch.read" hit per page
	// read for an archive scan or a partition rebuild. Faulting
	// arch.read exercises the fallback of the fallback: recovery of a
	// rotted checkpoint image crashing or rotting mid-rebuild.
	PointArchAppend Point = "arch.append"
	PointArchRead   Point = "arch.read"
)

// AllPoints lists every defined fault point.
func AllPoints() []Point {
	return []Point{
		PointLogWritePrimary, PointLogWriteMirror,
		PointLogReadPrimary, PointLogReadMirror,
		PointCkptWrite, PointCkptRead,
		PointStableAppend,
		PointSLBAppend, PointSLBStamp,
		PointCkptAfterFence, PointCkptAfterImage, PointCkptBeforeCommit,
		PointArchAppend, PointArchRead,
	}
}

// Errors surfaced by injected faults. Devices return them verbatim so
// callers can classify failures with IsFault / IsCrash.
var (
	// ErrCrashed means the simulated machine has halted: the op did not
	// complete and no further I/O will until the injector is reset.
	ErrCrashed = errors.New("fault: system crashed at injected fault point")
	// ErrInjected is a transient injected I/O error; the system keeps
	// running and retries are expected to succeed once the rule expires.
	ErrInjected = errors.New("fault: injected I/O error")
)

// IsFault reports whether err originates from the injector.
func IsFault(err error) bool {
	return errors.Is(err, ErrCrashed) || errors.Is(err, ErrInjected)
}

// IsCrash reports whether err is the injector's machine-halt error.
func IsCrash(err error) bool { return errors.Is(err, ErrCrashed) }

// Act is the action a rule takes when it fires.
type Act uint8

const (
	actInvalid Act = iota
	// ActCrashBefore halts the machine before the operation touches
	// the medium: nothing is applied.
	ActCrashBefore
	// ActCrashAfter halts the machine just after the operation
	// completed: the effect is durable but the caller never sees
	// success.
	ActCrashAfter
	// ActCrashTorn halts the machine mid-write: a prefix of the
	// payload reaches the medium and (for disks) the sector is left
	// with bad ECC.
	ActCrashTorn
	// ActIOErr fails the operation transiently; the system continues.
	ActIOErr
	// ActCorrupt lets the operation "succeed" while damaging the
	// medium: a latent bad sector discovered on a later read.
	ActCorrupt
	// The mutation family: the operation "succeeds" but the payload is
	// silently damaged at the byte level before it reaches the medium.
	// Unlike ActCorrupt the stored sector keeps valid ECC, so the device
	// cannot detect the rot — only a replay-side parser (record CRC,
	// page checksum, image validation) can. A mutated record must be
	// *detected*, never silently applied; the crashhunt sweep enforces
	// that as an invariant.
	//
	// ActMutFlip flips a few deterministically chosen payload bits.
	ActMutFlip
	// ActMutZero zeroes a deterministically chosen run of payload bytes.
	ActMutZero
	// ActMutTrunc cuts the payload short: only a prefix is stored, with
	// no torn-write ECC damage to betray it.
	ActMutTrunc
	// ActMutSplice overwrites a run of payload bytes with
	// deterministically generated foreign garbage.
	ActMutSplice
)

var actNames = map[Act]string{
	ActCrashBefore: "crash",
	ActCrashAfter:  "crash-after",
	ActCrashTorn:   "crash-torn",
	ActIOErr:       "ioerr",
	ActCorrupt:     "corrupt",
	ActMutFlip:     "flip",
	ActMutZero:     "zero",
	ActMutTrunc:    "trunc",
	ActMutSplice:   "splice",
}

func (a Act) String() string {
	if s, ok := actNames[a]; ok {
		return s
	}
	return fmt.Sprintf("act(%d)", uint8(a))
}

// IsCrash reports whether the act halts the machine.
func (a Act) IsCrash() bool {
	return a == ActCrashBefore || a == ActCrashAfter || a == ActCrashTorn
}

// IsMutation reports whether the act silently damages payload bytes.
func (a Act) IsMutation() bool {
	return a == ActMutFlip || a == ActMutZero || a == ActMutTrunc || a == ActMutSplice
}

func parseAct(s string) (Act, error) {
	for a, n := range actNames {
		if n == s {
			return a, nil
		}
	}
	return actInvalid, fmt.Errorf("fault: unknown act %q", s)
}

// Rule is one programmed fault: starting at the Hit-th hit of Point,
// apply Act to Count consecutive hits.
type Rule struct {
	Point Point
	// Hit is the 1-based hit index at which the rule starts firing.
	Hit int
	// Count is how many consecutive hits fire; 0 means 1, negative
	// means every hit from Hit on.
	Count int
	Act   Act
	// Torn is the act's byte argument. For ActCrashTorn it is the
	// number of payload bytes applied before the halt; for the mutation
	// acts it parameterises the damage (flip: bits flipped, zero/splice:
	// run length, trunc: bytes kept). Negative derives a deterministic
	// value from the plan seed, the hit index, and the payload length.
	Torn int
}

func (r Rule) matches(hit int64) bool {
	if hit < int64(r.Hit) {
		return false
	}
	if r.Count < 0 {
		return true
	}
	n := r.Count
	if n == 0 {
		n = 1
	}
	return hit < int64(r.Hit)+int64(n)
}

// String renders the rule in plan syntax: point@hit[+count]:act[:torn].
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%d", r.Point, r.Hit)
	if r.Count < 0 {
		b.WriteString("+*")
	} else if r.Count > 1 {
		fmt.Fprintf(&b, "+%d", r.Count)
	}
	fmt.Fprintf(&b, ":%s", r.Act)
	if (r.Act == ActCrashTorn || r.Act.IsMutation()) && r.Torn >= 0 {
		fmt.Fprintf(&b, ":%d", r.Torn)
	}
	return b.String()
}

// Plan is a complete, reproducible fault schedule. Rules is the first
// stage, armed immediately; Then holds later stages, each armed only
// once every rule of the previous stage has fired at least once. A
// chained stage's hit indexes are counted relative to the moment it
// arms, so "then crash at the 3rd slb.append hit of the recovery that
// follows" is expressible without knowing absolute workload hit counts.
type Plan struct {
	Seed  int64
	Rules []Rule
	Then  [][]Rule
}

// Depth reports the number of stages (0 for a rule-less plan).
func (p Plan) Depth() int {
	if len(p.Rules) == 0 {
		return 0
	}
	return 1 + len(p.Then)
}

// AllRules returns every rule across all stages, in stage order.
func (p Plan) AllRules() []Rule {
	out := append([]Rule(nil), p.Rules...)
	for _, st := range p.Then {
		out = append(out, st...)
	}
	return out
}

// String renders the plan as a one-line reproducer, e.g.
// "seed=1;log.write.primary@3:crash-torn:17,ckpt.write@2:ioerr".
// Chained stages are separated by '>':
// "seed=1;ckpt.write@2:flip>slb.append@5:crash".
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	writeStage := func(rules []Rule) {
		for i, r := range rules {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(r.String())
		}
	}
	if len(p.Rules) > 0 {
		b.WriteByte(';')
		writeStage(p.Rules)
		for _, st := range p.Then {
			b.WriteByte('>')
			writeStage(st)
		}
	}
	return b.String()
}

// MarshalText encodes the plan as its String form, so a JSON report
// carries the reproducer ParsePlan reads back.
func (p Plan) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// ParsePlan parses the Plan.String format.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	head, rest, _ := strings.Cut(strings.TrimSpace(s), ";")
	if !strings.HasPrefix(head, "seed=") {
		return p, fmt.Errorf("fault: plan must start with seed=<n>, got %q", head)
	}
	seed, err := strconv.ParseInt(strings.TrimPrefix(head, "seed="), 10, 64)
	if err != nil {
		return p, fmt.Errorf("fault: bad seed in %q: %v", head, err)
	}
	p.Seed = seed
	if rest == "" {
		return p, nil
	}
	for si, ss := range strings.Split(rest, ">") {
		var stage []Rule
		for _, rs := range strings.Split(ss, ",") {
			r, err := parseRule(rs)
			if err != nil {
				return p, err
			}
			stage = append(stage, r)
		}
		if len(stage) == 0 {
			return p, fmt.Errorf("fault: empty stage in plan %q", s)
		}
		if si == 0 {
			p.Rules = stage
		} else {
			p.Then = append(p.Then, stage)
		}
	}
	return p, nil
}

func parseRule(s string) (Rule, error) {
	var r Rule
	r.Torn = -1
	pointPart, actPart, ok := strings.Cut(s, ":")
	if !ok {
		return r, fmt.Errorf("fault: rule %q missing act", s)
	}
	pt, hitPart, ok := strings.Cut(pointPart, "@")
	if !ok {
		return r, fmt.Errorf("fault: rule %q missing @hit", s)
	}
	r.Point = Point(pt)
	hitStr, countStr, hasCount := strings.Cut(hitPart, "+")
	hit, err := strconv.Atoi(hitStr)
	if err != nil || hit < 1 {
		return r, fmt.Errorf("fault: bad hit index in rule %q", s)
	}
	r.Hit = hit
	if hasCount {
		if countStr == "*" {
			r.Count = -1
		} else if r.Count, err = strconv.Atoi(countStr); err != nil || r.Count < 1 {
			return r, fmt.Errorf("fault: bad count in rule %q", s)
		}
	}
	actStr, tornStr, hasTorn := strings.Cut(actPart, ":")
	if r.Act, err = parseAct(actStr); err != nil {
		return r, err
	}
	if hasTorn {
		if r.Torn, err = strconv.Atoi(tornStr); err != nil || r.Torn < 0 {
			return r, fmt.Errorf("fault: bad torn size in rule %q", s)
		}
	}
	return r, nil
}

// Decision tells an instrumented operation what to do. The zero value
// means "proceed normally".
type Decision struct {
	// Err, when non-nil, is returned by the operation (ErrCrashed or
	// ErrInjected).
	Err error
	// Apply is how many payload bytes reach the medium before Err is
	// raised: -1 means all (the default), 0 none, otherwise a torn
	// prefix.
	Apply int
	// MarkBad flags the written sector/track as damaged (bad ECC): a
	// later read of it fails until it is rewritten.
	MarkBad bool

	// Mutation state, set when a mutation-act rule fired: the operation
	// must pass its payload through MutateBytes and store (or return)
	// the damaged copy instead. The fields pin the deterministic damage
	// to (seed, point, hit) so a replayed plan mutates identically.
	mutAct   Act
	mutArg   int
	mutSeed  int64
	mutPoint Point
	mutHit   int64
}

// proceed is the no-fault decision.
var proceed = Decision{Apply: -1}

// ApplyBytes resolves Apply against an n-byte payload.
func (d Decision) ApplyBytes(n int) int {
	if d.Apply < 0 || d.Apply > n {
		return n
	}
	return d.Apply
}

// Mutated reports whether the payload must be damaged before it
// reaches the medium.
func (d Decision) Mutated() bool { return d.mutAct.IsMutation() }

// MutateBytes returns a damaged copy of payload p according to the
// fired mutation rule. The damage is a pure function of the plan seed,
// the point, the hit index, the rule argument, and len(p) — replays
// rot the same bytes. The input is never modified; the result may be
// shorter than the input (ActMutTrunc) but is always a fresh slice.
func (d Decision) MutateBytes(p []byte) []byte {
	if !d.Mutated() || len(p) == 0 {
		return append([]byte(nil), p...)
	}
	out := append([]byte(nil), p...)
	r := mutRand{state: mutSeed(d.mutSeed, d.mutPoint, d.mutHit)}
	n := len(out)
	switch d.mutAct {
	case ActMutFlip:
		bits := d.mutArg
		if bits <= 0 {
			bits = 1 + int(r.next()%3)
		}
		for i := 0; i < bits; i++ {
			pos := int(r.next() % uint64(n))
			out[pos] ^= 1 << (r.next() % 8)
		}
	case ActMutZero:
		off, run := mutRun(&r, n, d.mutArg)
		for i := off; i < off+run; i++ {
			out[i] = 0
		}
	case ActMutTrunc:
		keep := d.mutArg
		if keep < 0 {
			// Keep at least one byte: a zero-length prefix is a lost
			// write, not truncation rot — an acknowledged record
			// vanishing without a trace is outside the stable-memory
			// fault model and undetectable by construction in a
			// self-delimiting stream. A pinned arg of 0 still models it
			// explicitly.
			keep = 1
			if n > 1 {
				keep += int(r.next() % uint64(n-1))
			}
		}
		if keep > n {
			keep = n
		}
		out = out[:keep]
	case ActMutSplice:
		off, run := mutRun(&r, n, d.mutArg)
		for i := off; i < off+run; i++ {
			out[i] = byte(r.next())
		}
	}
	return out
}

// mutRun picks a damage run [off, off+run) inside an n-byte payload;
// arg >= 0 pins the run length.
func mutRun(r *mutRand, n, arg int) (off, run int) {
	run = arg
	if run <= 0 {
		run = 1 + int(r.next()%uint64(min(8, n)))
	}
	if run > n {
		run = n
	}
	off = int(r.next() % uint64(n-run+1))
	return off, run
}

// mutRand is a tiny splitmix-style generator so mutation draws are
// deterministic without shared RNG state.
type mutRand struct{ state uint64 }

func (r *mutRand) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func mutSeed(seed int64, p Point, hit int64) uint64 {
	h := uint64(seed) * 0x9E3779B97F4A7C15
	for _, b := range []byte(p) {
		h = (h ^ uint64(b)) * 0x100000001B3
	}
	h ^= uint64(hit) * 0xFF51AFD7ED558CCD
	return h
}

// Counters are the observability hooks the recovery component wires
// into its metrics registry; all fields are optional and nil-safe.
type Counters struct {
	Armed          *metrics.Counter // rules armed via plans
	Triggered      *metrics.Counter // rule firings
	TornWrites     *metrics.Counter // writes torn at a byte boundary
	MutationsArmed *metrics.Counter // armed rules with mutation acts
	MutationsFired *metrics.Counter // mutation-act firings
}

// EventSink observes rule firings for the trace layer: it receives the
// point, the 1-based hit index, and the action applied. The sink runs
// outside the injector's mutex, on the faulting goroutine, before the
// decision is returned to the instrumented operation — so a crash-act
// firing can be recorded by a flight recorder before the machine halt
// propagates. The fault package deliberately does not import the trace
// package (the trace ring lives in stable memory, which this package
// instruments); the recovery component bridges the two.
type EventSink func(p Point, hit int64, act Act)

// armedRule is a rule live in the injector: base is the point's hit
// count at the moment the rule's stage armed (0 for the first stage),
// so chained-stage hit indexes are relative to arming; fired tracks
// whether this rule has fired at least once (stage advancement).
type armedRule struct {
	Rule
	base  int64
	fired bool
}

func (ar *armedRule) matches(hit int64) bool {
	return ar.Rule.matches(hit - ar.base)
}

// Injector evaluates a Plan against named fault points. All methods
// are safe on a nil receiver (the off state) and for concurrent use.
type Injector struct {
	// crashed fails every later Check. halted is set first, the instant
	// a crash rule fires, so that Crashed already reports the crash to
	// anyone the rule's sink wakes, while the sink records the trigger
	// before any I/O fails.
	crashed atomic.Bool
	halted  atomic.Bool

	mu    sync.Mutex
	seed  int64
	rules map[Point][]*armedRule
	// pending holds not-yet-armed chained stages; remaining counts the
	// currently armed stage's rules that have not fired yet — when it
	// reaches zero the next pending stage arms with fresh hit bases.
	pending   [][]Rule
	remaining int
	hits      map[Point]int64
	fired     int64
	counters  Counters
	sink      EventSink
}

// NewInjector creates an injector armed with plan (an empty plan gives
// a pure hit-counting injector).
func NewInjector(plan Plan) *Injector {
	in := &Injector{hits: make(map[Point]int64)}
	in.Arm(plan)
	return in
}

// Arm replaces the injector's rules and seed with plan's: the first
// stage arms immediately, chained stages (Plan.Then) arm as earlier
// stages complete. Hit counters are preserved; use Reset for a fully
// fresh start.
func (in *Injector) Arm(plan Plan) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.seed = plan.Seed
	in.rules = nil
	in.pending = plan.Then
	in.remaining = 0
	in.armStageLocked(plan.Rules, 0)
	c := in.counters
	in.mu.Unlock()
	c.Armed.Add(int64(len(plan.Rules)))
	c.MutationsArmed.Add(countMutations(plan.Rules))
}

// armStageLocked makes one stage's rules live. base 0 means absolute
// hit indexes (the first stage); otherwise each rule's hit window is
// anchored at its point's current hit count.
func (in *Injector) armStageLocked(stage []Rule, stageIdx int) {
	if in.rules == nil {
		in.rules = make(map[Point][]*armedRule, len(stage))
	}
	for _, r := range stage {
		var base int64
		if stageIdx > 0 {
			base = in.hits[r.Point]
		}
		in.rules[r.Point] = append(in.rules[r.Point], &armedRule{Rule: r, base: base})
	}
	in.remaining = len(stage)
}

func countMutations(rules []Rule) int64 {
	var n int64
	for _, r := range rules {
		if r.Act.IsMutation() {
			n++
		}
	}
	return n
}

// Reset disarms, clears the crash flag, and zeroes hit counters: the
// machine is powered back on with a fresh injector.
func (in *Injector) Reset() {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.rules = nil
	in.pending = nil
	in.remaining = 0
	in.hits = make(map[Point]int64)
	in.fired = 0
	in.mu.Unlock()
	in.ClearCrash()
}

// ClearCrash clears the crash flag but keeps rules and hit counters:
// used when recovery itself is under fault injection, so rules whose
// hit indexes fall in the recovery phase can still fire.
func (in *Injector) ClearCrash() {
	if in == nil {
		return
	}
	in.crashed.Store(false)
	in.halted.Store(false)
}

// ForceCrash halts the machine immediately: every subsequent
// instrumented operation fails with ErrCrashed. DB.Crash uses it to
// make the simulated failure sharp even with I/O in flight.
func (in *Injector) ForceCrash() {
	if in == nil {
		return
	}
	in.crashed.Store(true)
}

// Crashed reports whether the machine has halted: from the instant a
// crash rule fires, before its sink runs, until Reset or ClearCrash.
func (in *Injector) Crashed() bool { return in != nil && (in.halted.Load() || in.crashed.Load()) }

// Triggered returns how many rule firings have occurred since the last
// Reset.
func (in *Injector) Triggered() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// Hits returns a copy of the per-point hit counters.
func (in *Injector) Hits() map[Point]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Point]int64, len(in.hits))
	for p, n := range in.hits {
		out[p] = n
	}
	return out
}

// SetCounters wires metrics counters in; the currently armed rule count
// is reported as armed on the (fresh) registry.
func (in *Injector) SetCounters(c Counters) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.counters = c
	var n, muts int64
	for _, rs := range in.rules {
		n += int64(len(rs))
		for _, ar := range rs {
			if ar.Act.IsMutation() {
				muts++
			}
		}
	}
	in.mu.Unlock()
	c.Armed.Add(n)
	c.MutationsArmed.Add(muts)
}

// SetEventSink installs the trace bridge invoked on every rule firing.
// A nil sink detaches.
func (in *Injector) SetEventSink(s EventSink) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.sink = s
	in.mu.Unlock()
}

// Check is the hot-path hook instrumented operations call: it counts
// the hit, evaluates rules, and returns the decision. size is the
// payload length (0 for control points). Nil-safe.
func (in *Injector) Check(p Point, size int) Decision {
	if in == nil {
		return proceed
	}
	if in.crashed.Load() {
		return Decision{Err: ErrCrashed}
	}
	in.mu.Lock()
	hit := in.hits[p] + 1
	in.hits[p] = hit
	var match *armedRule
	for _, ar := range in.rules[p] {
		if ar.matches(hit) {
			match = ar
			break
		}
	}
	if match == nil {
		in.mu.Unlock()
		return proceed
	}
	in.fired++
	var stageArmed []Rule
	if !match.fired {
		match.fired = true
		in.remaining--
		if in.remaining == 0 && len(in.pending) > 0 {
			// Every rule of the current stage has fired: arm the next
			// chained stage, anchoring its hit windows at the current
			// per-point counters (the hit that fired this rule included).
			stageArmed = in.pending[0]
			in.pending = in.pending[1:]
			in.armStageLocked(stageArmed, 1)
		}
	}
	c := in.counters
	sink := in.sink
	seed := in.seed
	r := match.Rule
	relHit := hit - match.base
	in.mu.Unlock()

	c.Triggered.Inc()
	if len(stageArmed) > 0 {
		c.Armed.Add(int64(len(stageArmed)))
		c.MutationsArmed.Add(countMutations(stageArmed))
	}
	if r.Act.IsCrash() {
		in.halted.Store(true)
	}
	if sink != nil {
		// Recorded before I/O starts failing, so a flight recorder can
		// capture the trigger as its final pre-crash event.
		sink(p, hit, r.Act)
	}
	d := proceed
	switch r.Act {
	case ActCrashBefore:
		in.crashed.Store(true)
		d = Decision{Err: ErrCrashed, Apply: 0}
	case ActCrashAfter:
		in.crashed.Store(true)
		d = Decision{Err: ErrCrashed, Apply: -1}
	case ActCrashTorn:
		in.crashed.Store(true)
		torn := r.Torn
		if torn < 0 {
			torn = tornSize(seed, p, relHit, size)
		}
		if torn > size {
			torn = size
		}
		c.TornWrites.Inc()
		d = Decision{Err: ErrCrashed, Apply: torn, MarkBad: true}
	case ActIOErr:
		d = Decision{Err: ErrInjected, Apply: 0}
	case ActCorrupt:
		d = Decision{Apply: -1, MarkBad: true}
	case ActMutFlip, ActMutZero, ActMutTrunc, ActMutSplice:
		c.MutationsFired.Inc()
		d = Decision{Apply: -1, mutAct: r.Act, mutArg: r.Torn,
			mutSeed: seed, mutPoint: p, mutHit: relHit}
	}
	return d
}

// tornSize derives a deterministic tear offset in [0, size) from the
// plan seed, the point, and the hit index — no shared RNG state, so
// concurrent hits cannot perturb each other's draws.
func tornSize(seed int64, p Point, hit int64, size int) int {
	if size <= 0 {
		return 0
	}
	h := uint64(seed) * 0x9E3779B97F4A7C15
	for _, b := range []byte(p) {
		h = (h ^ uint64(b)) * 0x100000001B3
	}
	h ^= uint64(hit) * 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return int(h % uint64(size))
}
