package core

import (
	"fmt"
	"sync"
	"testing"

	"mmdb/internal/addr"
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

// noBinWedged fails the test if any bin is still marked pending once the
// manager reports idle: pending with an empty request queue is for good,
// because every trigger defers to the flag.
func (h *harness) noBinWedged(when string) {
	h.t.Helper()
	h.m.WaitIdle()
	for _, b := range h.m.BinStates() {
		if b.CkptPending {
			h.t.Fatalf("%s: bin %v is checkpoint-pending (update count %d) with no request left to serve it", when, b.PID, b.UpdateCount)
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
	h.waitFor("both checkpoints", func() bool { return h.m.Metrics().CkptCompleted.Value() >= 2 })
	h.noBinWedged("after an in-flight re-trigger")

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
	h.waitFor("checkpoint after restart", func() bool { return h.m.Metrics().CkptCompleted.Value() >= 1 })
	h.noBinWedged("after a crash mid-checkpoint")
	if got := h.binOf(pid).UpdateCount; got >= h.cfg.UpdateThreshold {
		t.Fatalf("bin still holds %d updates after restart and idle", got)
	}
}

// TestRestartReconcilesPendingWithoutRequest: ckptPending and the request
// queue are written under different locks, so a crash can leave a bin
// pending with no request. Restart must notice and queue one.
func TestRestartReconcilesPendingWithoutRequest(t *testing.T) {
	h := newHarness(t, testCfg())
	h.start()
	seg := h.seg()
	a := h.insert(seg, []byte("v0000"))
	pid := a.Partition()
	for i := 0; i < 5; i++ {
		h.update(a, []byte(fmt.Sprintf("v%04d", i)))
	}
	h.m.WaitIdle()
	// What a crash between the trigger's two writes leaves behind.
	h.m.slt.st.mu.Lock()
	h.m.slt.st.bins[pid].ckptPending = true
	h.m.slt.st.mu.Unlock()

	h.crash()
	defer h.m.Stop()
	h.waitFor("reconciled checkpoint", func() bool { return h.m.Metrics().CkptCompleted.Value() >= 1 })
	h.noBinWedged("after restart")
}
