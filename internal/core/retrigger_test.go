package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/trace"
)

// binOf returns pid's bin state.
func (h *harness) binOf(pid addr.PartitionID) BinState {
	for _, b := range h.m.BinStates() {
		if b.PID == pid {
			return b
		}
	}
	return BinState{}
}

// noBinWedged waits for idle and fails the test if any bin is still
// checkpoint-pending or fenced: idle means no request is left to serve.
func (h *harness) noBinWedged(when string) {
	h.t.Helper()
	h.m.WaitIdle()
	for _, b := range h.m.BinStates() {
		if b.CkptPending || b.FenceActive {
			h.t.Fatalf("%s: bin %v is checkpoint-pending=%v fenced=%v (update count %d) after WaitIdle",
				when, b.PID, b.CkptPending, b.FenceActive, b.UpdateCount)
		}
	}
}

// TestRetriggerWhileCheckpointInFlight: a partition takes a threshold's
// worth of updates while its checkpoint is between fence and finish, so
// the finish must request the next checkpoint at once. That request used
// to be dropped as a duplicate of the one still finishing.
func TestRetriggerWhileCheckpointInFlight(t *testing.T) {
	h := newHarness(t, testCfg())
	seg := h.seg()
	a := h.insert(seg, []byte("v0000"))
	pid := a.Partition()

	var once sync.Once
	flood := func(addr.PartitionID) error {
		once.Do(func() {
			before := h.binOf(pid).UpdateCount
			for i := 0; i < h.cfg.UpdateThreshold+3; i++ {
				h.update(a, []byte(fmt.Sprintf("f%04d", i)))
			}
			// The recovery CPU must have binned them before the finish
			// message arrives, or there is nothing to re-trigger on.
			// (WaitIdle cannot serve here: this checkpoint is pending.)
			h.waitFor("in-flight updates sorted", func() bool {
				return h.binOf(pid).UpdateCount >= before+h.cfg.UpdateThreshold
			})
		})
		return nil
	}
	h.m.Hooks.AfterImageWrite = flood
	h.start()
	for i := 0; i < h.cfg.UpdateThreshold+1; i++ {
		h.update(a, []byte(fmt.Sprintf("v%04d", i)))
	}
	h.noBinWedged("after an in-flight re-trigger")
	if n := h.m.Metrics().CkptCompleted.Value(); n < 2 {
		t.Fatalf("%d checkpoints completed, want the first and its re-trigger", n)
	}

	// The same, with a crash while the re-triggered kind of checkpoint is
	// in flight: the flood lands, then the machine dies before the finish.
	once = sync.Once{}
	inFlight, release := make(chan struct{}), make(chan struct{})
	h.m.Hooks.AfterImageWrite = func(p addr.PartitionID) error {
		err := flood(p)
		close(inFlight)
		<-release
		return err
	}
	for i := 0; i < h.cfg.UpdateThreshold+1; i++ {
		h.update(a, []byte(fmt.Sprintf("w%04d", i)))
	}
	<-inFlight
	h.cfg.FaultInjector.ForceCrash()
	close(release)
	h.crash()
	defer h.m.Stop()
	h.noBinWedged("after a crash mid-checkpoint")
	if n := h.m.Metrics().CkptCompleted.Value(); n < 1 {
		t.Fatal("no checkpoint completed after restart")
	}
	if got := h.binOf(pid).UpdateCount; got >= h.cfg.UpdateThreshold {
		t.Fatalf("bin still holds %d updates after restart and idle", got)
	}
}

// TestRestartServesPendingBin: a bin pending at the crash is
// checkpointed after restart, under the trigger that raised it. The
// trigger in the bin is the whole request; restart has nothing to
// reconcile it with.
func TestRestartServesPendingBin(t *testing.T) {
	cfg := testCfg()
	cfg.FlightRecorderBytes = 32 << 10
	h := newHarness(t, cfg)
	h.start()
	seg := h.seg()
	a := h.insert(seg, []byte("v0000"))
	pid := a.Partition()
	for i := 0; i < 5; i++ {
		h.update(a, []byte(fmt.Sprintf("v%04d", i)))
	}
	h.m.WaitIdle()

	h.powerOff()
	h.hw.Stable.Root(sltRootKey).(*sltState).bins[pid].ckptTrigger = trigAge
	h.powerOn()
	h.m.Start()
	defer h.m.Stop()
	h.noBinWedged("after restart")
	if n := h.m.Metrics().CkptCompleted.Value(); n != 1 {
		t.Fatalf("%d checkpoints completed after restart, want 1", n)
	}
	var begun []trace.Event
	for _, e := range h.m.TraceEvents() {
		if e.Kind == trace.KindCkptBegin {
			begun = append(begun, e)
		}
	}
	if len(begun) != 1 || begun[0].Seg != uint64(pid.Segment) || begun[0].Part != uint64(pid.Part) ||
		ckptTrigger(begun[0].Arg2) != trigAge {
		t.Fatalf("checkpoints begun after restart = %+v, want one of %v by age", begun, pid)
	}
}

// TestCheckpointRequestsAlwaysEnd runs a seeded schedule of update-count
// triggers, manual requests, failing checkpoints, partition frees and
// crashes. After every WaitIdle no bin is pending or fenced, and every
// request raised has ended: completed + abandoned equals triggered plus
// the manual requests, summed over the incarnations.
func TestCheckpointRequestsAlwaysEnd(t *testing.T) {
	cfg := testCfg()
	cfg.UpdateThreshold = 8
	h := newHarness(t, cfg)

	// One partition's checkpoints always fail, so each of its requests is
	// abandoned after maxCkptAttempts; every third attempt elsewhere fails
	// and is retried.
	var doomed atomic.Value
	var calls atomic.Int64
	boom := errors.New("injected checkpoint failure")
	failing := func(pid addr.PartitionID) error {
		if d, _ := doomed.Load().(addr.PartitionID); d == pid || calls.Add(1)%3 == 0 {
			return boom
		}
		return nil
	}
	h.m.Hooks.AfterImageWrite = failing
	h.start()

	var live []addr.EntityAddr
	for i := 0; i < 6; i++ {
		live = append(live, h.insert(h.seg(), []byte("v0000")))
	}
	doomed.Store(live[0].Partition())

	// past sums the finished incarnations' ledgers; manual counts the
	// RequestCheckpoint calls, each made at idle, so each raised a
	// request.
	type ledger struct{ raised, completed, abandoned int64 }
	var past ledger
	var manual int64
	total := func() ledger {
		st := h.m.Metrics()
		return ledger{
			raised:    past.raised + manual + st.CkptByUpdateCount.Value() + st.CkptByAge.Value(),
			completed: past.completed + st.CkptCompleted.Value(),
			abandoned: past.abandoned + st.CkptAbandoned.Value(),
		}
	}
	check := func(step int) {
		t.Helper()
		when := fmt.Sprintf("step %d", step)
		h.noBinWedged(when)
		if l := total(); l.raised != l.completed+l.abandoned {
			t.Fatalf("%s: %d requests raised, %d completed, %d abandoned", when, l.raised, l.completed, l.abandoned)
		}
	}

	rng := rand.New(rand.NewSource(27))
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(100); {
		case op < 80:
			a := live[rng.Intn(len(live))]
			h.update(a, []byte(fmt.Sprintf("s%04d", step)))
		case op < 88:
			check(step)
			h.m.RequestCheckpoint(live[rng.Intn(len(live))].Partition())
			manual++
		case op < 91 && len(live) > 3:
			i := 1 + rng.Intn(len(live)-1) // never the doomed one
			h.m.PartitionFreed(live[i].Partition())
			live = append(live[:i], live[i+1:]...)
		case op < 95:
			h.powerOff()
			past, manual = total(), 0
			h.powerOn()
			h.m.Hooks.AfterImageWrite = failing
			h.m.Start()
		default:
			check(step)
		}
	}
	check(400)
	h.m.Stop()
	if l := total(); l.completed == 0 || l.abandoned == 0 {
		t.Fatalf("the schedule completed %d and abandoned %d requests; it must do both", l.completed, l.abandoned)
	}
}
