package core

import (
	"bytes"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/metrics"
)

// simCounters names the four instruments of the sim subsystem.
func simCounters(mt *Metrics) map[string]*metrics.Counter {
	return map[string]*metrics.Counter{
		"recovery_instr":    mt.SimRecoveryInstr,
		"stable_refs":       mt.SimStableRefs,
		"log_disk_busy_us":  mt.SimLogDiskBusy,
		"ckpt_disk_busy_us": mt.SimCkptDiskBusy,
	}
}

// The devices outlive the Manager, the simulated-cost counters do not:
// each generation's registry starts its own, New re-points the devices
// at them, and the dead generation's counters never move again.
func TestSimCountersFollowTheGeneration(t *testing.T) {
	h := newHarness(t, testCfg())
	h.start()
	seg := h.seg()
	a := h.insert(seg, bytes.Repeat([]byte{1}, 200))
	for i := 0; i < 40; i++ { // past N_update = 32: a checkpoint image
		h.update(a, bytes.Repeat([]byte{byte(i)}, 200))
	}
	h.idleWith("checkpoint", func() bool { return h.m.Metrics().CkptCompleted.Value() >= 1 })
	for i := 0; i < 10; i++ { // and log pages written after it
		h.update(a, bytes.Repeat([]byte{byte(100 + i)}, 200))
	}
	h.m.WaitIdle()
	dead := h.m.Metrics()
	for name, c := range simCounters(dead) {
		if c.Value() <= 0 {
			t.Fatalf("sim/%s = %d after a checkpointed workload, want > 0", name, c.Value())
		}
	}

	h.cfg.FaultInjector.ForceCrash()
	h.m.Stop()
	h.cfg.FaultInjector.Reset()
	deadAt := map[string]int64{}
	for name, c := range simCounters(dead) {
		deadAt[name] = c.Value()
	}
	h.attach()
	next := h.m.Metrics()
	if next == dead {
		t.Fatal("the new generation reuses the dead one's instruments")
	}
	// Attaching reads stable memory (SLB, heat snapshot, flight
	// recorder); nothing has touched a disk or the recovery CPU yet.
	for _, name := range []string{"recovery_instr", "log_disk_busy_us", "ckpt_disk_busy_us"} {
		if v := simCounters(next)[name].Value(); v != 0 {
			t.Fatalf("new generation's sim/%s starts at %d, want 0", name, v)
		}
	}
	if _, err := h.m.Restart(); err != nil {
		t.Fatal(err)
	}
	h.m.Resume()
	defer h.m.Stop()
	logBefore, ckptBefore := next.SimLogDiskBusy.Value(), next.SimCkptDiskBusy.Value()
	pid := addr.PartitionID{Segment: a.Segment, Part: a.Part}
	if _, err := h.store.Partition(pid); err != nil { // demand: image + log pages
		t.Fatal(err)
	}
	if d := next.SimCkptDiskBusy.Value() - ckptBefore; d <= 0 {
		t.Fatalf("demanded partition charged %d us of checkpoint-disk time, want > 0", d)
	}
	if d := next.SimLogDiskBusy.Value() - logBefore; d <= 0 {
		t.Fatalf("demanded partition charged %d us of log-disk time, want > 0", d)
	}
	for name, c := range simCounters(dead) {
		if c.Value() != deadAt[name] {
			t.Fatalf("dead generation's sim/%s moved %d -> %d after the crash", name, deadAt[name], c.Value())
		}
	}
}
