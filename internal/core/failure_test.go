package core

import (
	"bytes"
	"fmt"
	"testing"
)

// TestDuplexLogFailoverDuringOperation fails one log spindle mid-run;
// logging, checkpointing, and recovery must continue on the mirror.
func TestDuplexLogFailoverDuringOperation(t *testing.T) {
	h := newHarness(t, testCfg())
	h.start()
	seg := h.seg()
	a := h.insert(seg, []byte("v0"))
	for i := 0; i < 100; i++ {
		h.update(a, []byte(fmt.Sprintf("v%03d", i)))
	}
	h.m.WaitIdle()
	// Primary spindle dies.
	h.hw.Log.Primary.Fail()
	for i := 100; i < 200; i++ {
		h.update(a, []byte(fmt.Sprintf("v%03d", i)))
	}
	h.m.WaitIdle()
	h.crash()
	defer h.m.Stop()
	p, err := h.store.Partition(a.Partition())
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(a.Slot)
	if err != nil || !bytes.Equal(got, []byte("v199")) {
		t.Fatalf("after failover recovery: %q, %v", got, err)
	}
}

// TestCheckpointDiskFullAbandonsRequest fills the checkpoint disk; the
// repeated-failure path must drop the request instead of wedging the
// queue, and normal logging must continue.
func TestCheckpointDiskFullAbandonsRequest(t *testing.T) {
	cfg := testCfg()
	cfg.CheckpointTracks = 1 // room for exactly one image
	cfg.UpdateThreshold = 16
	h := newHarness(t, cfg)
	h.start()
	defer h.m.Stop()
	segA, segB := h.seg(), h.seg()
	a := h.insert(segA, []byte("a"))
	b := h.insert(segB, []byte("b"))
	// Partition A gets the only track.
	for i := 0; i < cfg.UpdateThreshold+4; i++ {
		h.update(a, []byte(fmt.Sprintf("a%02d", i%90)))
	}
	h.idleWith("first checkpoint", func() bool { return h.m.Metrics().CkptCompleted.Value() >= 1 })
	// Partition B's checkpoints cannot allocate a track; after the
	// bounded retries the request is abandoned.
	for i := 0; i < cfg.UpdateThreshold+4; i++ {
		h.update(b, []byte(fmt.Sprintf("b%02d", i%90)))
	}
	h.idleWith("abandonment", func() bool { return h.m.Metrics().CkptAbandoned.Value() >= 1 })
	// The system still processes transactions and can recover B from
	// its log alone.
	h.update(b, []byte("final"))
	h.m.WaitIdle()
	h.crash()
	defer h.m.Stop()
	p, err := h.store.Partition(b.Partition())
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(b.Slot)
	if err != nil || !bytes.Equal(got, []byte("final")) {
		t.Fatalf("B after disk-full recovery: %q, %v", got, err)
	}
}

// TestWindowOverrunKeepsNeededPages shrinks the window below what an
// uncheckpointable partition needs; safety must win over window
// discipline (pages are retained, overruns counted).
func TestWindowOverrunKeepsNeededPages(t *testing.T) {
	cfg := testCfg()
	cfg.LogWindowPages = 4
	cfg.GracePages = 1
	cfg.UpdateThreshold = 1 << 30
	cfg.CheckpointTracks = 0 // checkpoints can never complete
	h := newHarness(t, cfg)
	h.start()
	seg := h.seg()
	a := h.insert(seg, []byte("x"))
	for i := 0; i < 400; i++ {
		h.update(a, []byte(fmt.Sprintf("v%03d", i)))
	}
	h.m.WaitIdle()
	st := h.m.Metrics()
	if st.WindowOverruns.Value() == 0 {
		t.Fatal("expected window overruns with unperformable checkpoints")
	}
	// Despite the overrun, recovery still has every page it needs.
	h.crash()
	defer h.m.Stop()
	p, err := h.store.Partition(a.Partition())
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(a.Slot)
	if err != nil || !bytes.Equal(got, []byte("v399")) {
		t.Fatalf("after overrun recovery: %q, %v", got, err)
	}
}

// TestOversizedRecordRoundTrip pushes an entity larger than both the
// SLB block and the log page through logging and recovery.
func TestOversizedRecordRoundTrip(t *testing.T) {
	cfg := testCfg() // 512-byte blocks and pages
	h := newHarness(t, cfg)
	h.start()
	seg := h.seg()
	big := bytes.Repeat([]byte{0xAB}, 3000)
	a := h.insert(seg, big)
	h.m.WaitIdle()
	h.crash()
	defer h.m.Stop()
	p, err := h.store.Partition(a.Partition())
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(a.Slot)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("oversized entity lost: len %d, %v", len(got), err)
	}
}
