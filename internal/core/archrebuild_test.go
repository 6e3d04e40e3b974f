package core

import (
	"bytes"
	"fmt"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/fault"
	"mmdb/internal/simdisk"
)

// runArchiveWorkload drives enough committed updates through one entity
// to complete checkpoints and roll log pages into the archive, then
// returns the entity address and its final committed value.
func (h *harness) runArchiveWorkload() (a addrEntity, want []byte) {
	h.t.Helper()
	seg := h.seg()
	ea := h.insert(seg, []byte("v-first"))
	for i := 0; i < 300; i++ {
		want = []byte(fmt.Sprintf("v%04d", i))
		h.update(ea, want)
	}
	h.idleWith("checkpoint completion", func() bool { return h.m.Metrics().CkptCompleted.Value() >= 1 })
	h.idleWith("archive entries", func() bool { return h.hw.Arch.Entries() > 0 })
	return addrEntity{ea.Partition(), ea.Slot}, want
}

type addrEntity struct {
	pid  addr.PartitionID
	slot addr.Slot
}

// TestStaleTrackRebuildsFromArchive is the first loss branch: the
// catalog names a checkpoint track the disk no longer holds (the
// checkpoint-rot scenario where a lost catalog relocation leaves the
// catalog aimed at a freed track). Recovery must rebuild the partition
// from its archived history plus the log window with zero lost
// committed effects — not announce an empty image.
func TestStaleTrackRebuildsFromArchive(t *testing.T) {
	cfg := testCfg()
	cfg.LogWindowPages = 8
	cfg.GracePages = 2
	cfg.UpdateThreshold = 24
	h := newHarness(t, cfg)
	h.start()
	ea, want := h.runArchiveWorkload()

	h.cfg.FaultInjector.ForceCrash()
	h.m.Stop()
	h.cfg.FaultInjector.Reset()
	h.mu.Lock()
	track := h.tracks[ea.pid]
	h.mu.Unlock()
	if track == simdisk.NilTrack {
		t.Fatal("workload completed no checkpoint")
	}
	h.hw.Ckpt.FreeTrack(track) // the disk lost the image; the catalog still points at it
	h.attach()
	if _, err := h.m.Restart(); err != nil {
		t.Fatal(err)
	}
	h.m.Resume()
	h.m.Start()
	defer h.m.Stop()

	p, err := h.store.Partition(ea.pid) // on-demand recovery
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(ea.slot)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("recovered %q (%v), want %q — committed effects lost", got, err, want)
	}
	mt := h.m.Metrics()
	if mt.ImagesQuarantined.Value() < 1 {
		t.Fatalf("images_quarantined = %d, want >= 1", mt.ImagesQuarantined.Value())
	}
	if mt.ArchRebuilds.Value() < 1 {
		t.Fatalf("archive rebuilds = %d, want >= 1", mt.ArchRebuilds.Value())
	}
	if mt.ArchRebuildFailed.Value() != 0 {
		t.Fatalf("empty-image fallbacks = %d, want 0", mt.ArchRebuildFailed.Value())
	}
	if mt.QuarantinedRecords.Value() != 0 {
		t.Fatalf("quarantined records = %d, want 0", mt.QuarantinedRecords.Value())
	}
}

// TestRottedImageRebuildsFromArchive is the second loss branch: the
// track still exists but the image bytes rot on the way back (a
// ckpt.read mutation under valid sector ECC). The envelope CRC must
// detect it and recovery must rebuild from the archive, zero loss.
func TestRottedImageRebuildsFromArchive(t *testing.T) {
	cfg := testCfg()
	cfg.LogWindowPages = 8
	cfg.GracePages = 2
	cfg.UpdateThreshold = 24
	h := newHarness(t, cfg)
	h.start()
	ea, want := h.runArchiveWorkload()

	h.cfg.FaultInjector.ForceCrash()
	h.m.Stop()
	// Power back on with read-rot armed: the first checkpoint-image read
	// of the recovery comes back flipped.
	h.cfg.FaultInjector = fault.NewInjector(fault.Plan{
		Seed:  7,
		Rules: []fault.Rule{{Point: fault.PointCkptRead, Hit: 1, Act: fault.ActMutFlip, Torn: -1}},
	})
	h.attach()
	if _, err := h.m.Restart(); err != nil {
		t.Fatal(err)
	}
	h.m.Resume()
	h.m.Start()
	defer h.m.Stop()

	p, err := h.store.Partition(ea.pid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(ea.slot)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("recovered %q (%v), want %q — rotted image cost committed effects", got, err, want)
	}
	mt := h.m.Metrics()
	if mt.ImagesQuarantined.Value() < 1 {
		t.Fatalf("images_quarantined = %d, want >= 1", mt.ImagesQuarantined.Value())
	}
	if mt.ArchRebuilds.Value() < 1 {
		t.Fatalf("archive rebuilds = %d, want >= 1", mt.ArchRebuilds.Value())
	}
	if mt.ArchRebuildFailed.Value() != 0 {
		t.Fatalf("empty-image fallbacks = %d, want 0", mt.ArchRebuildFailed.Value())
	}
}
