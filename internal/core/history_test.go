package core

import (
	"bytes"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/archive"
	"mmdb/internal/catalog"
	"mmdb/internal/fault"
	"mmdb/internal/mm"
	"mmdb/internal/simdisk"
	"mmdb/internal/trace"
	"mmdb/internal/wal"
)

func histPage(pid addr.PartitionID, recs ...wal.Record) []byte {
	var buf []byte
	for i := range recs {
		buf = recs[i].Encode(buf)
	}
	return (&wal.Page{PID: pid, Records: buf}).Encode()
}

func histRec(tag wal.Tag, pid addr.PartitionID, slot addr.Slot, data string) wal.Record {
	return wal.Record{Tag: tag, Txn: 1, PID: pid, Slot: slot, Data: []byte(data)}
}

// histMedia is one coherent LSN-ordered history spread over the two
// media the way rollover spreads it: every page goes through the log
// disk, roll copies one into the archive, and drop releases the log
// copies and advances the archived-to mark.
type histMedia struct {
	t        *testing.T
	arch     *archive.Store
	log      *simdisk.DuplexLog
	archived simdisk.LSN
}

func newHistMedia(t *testing.T) *histMedia {
	t.Helper()
	arch, err := archive.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	return &histMedia{t: t, arch: arch, log: simdisk.NewDuplexLog(simdisk.DefaultParams(), nil)}
}

func (h *histMedia) append(page []byte) simdisk.LSN {
	h.t.Helper()
	lsn, err := h.log.Append(page)
	if err != nil {
		h.t.Fatal(err)
	}
	return lsn
}

func (h *histMedia) roll(pid addr.PartitionID, lsn simdisk.LSN, page []byte) {
	h.t.Helper()
	if err := h.arch.AppendPage(pid, lsn, page); err != nil {
		h.t.Fatal(err)
	}
}

func (h *histMedia) drop(upTo simdisk.LSN) {
	h.log.Drop(upTo)
	h.archived = upTo
}

func (h *histMedia) archivedTo() simdisk.LSN { return h.archived }

// replay applies a history the way restorePartition does, minus the
// quarantine accounting.
func replay(t *testing.T, pid addr.PartitionID, pages []logPage) *mm.Partition {
	t.Helper()
	p := mm.NewPartition(pid, 4096)
	for _, pg := range pages {
		mustReplay(t, p, pg.recs)
	}
	return p
}

func TestHistorySkipsDamagedPage(t *testing.T) {
	// An archived page that no longer decodes is detected rot: skipped
	// and counted, never applied, never hiding the rest of the history.
	h := newHistMedia(t)
	pid := addr.PartitionID{Segment: 2, Part: 0}
	h.roll(pid, 1, []byte{2}) // not a wal page
	h.roll(pid, 2, histPage(pid, histRec(wal.TagRelInsert, pid, 0, "ok")))
	pages, damaged, err := partitionHistory(h.arch, h.log, h.archivedTo, pid)
	if err != nil {
		t.Fatal(err)
	}
	if damaged != 1 || len(pages) != 1 {
		t.Fatalf("history = %d pages, %d damaged; want 1 and 1", len(pages), damaged)
	}
	if got, _ := replay(t, pid, pages).Read(0); !bytes.Equal(got, []byte("ok")) {
		t.Fatalf("slot0 = %q: good history lost behind the rotted page", got)
	}
}

func TestHistoryOverlapWindowReplaysOnce(t *testing.T) {
	// The rollover window is real: pages are appended to the archive
	// before the log copies drop, and a crash between the two leaves the
	// same LSNs live on both media. They must replay exactly once — a
	// second pass over an insert that a later page deleted would
	// resurrect the slot.
	h := newHistMedia(t)
	pid := addr.PartitionID{Segment: 2, Part: 0}
	p1 := histPage(pid, histRec(wal.TagRelInsert, pid, 0, "v0"))
	p2 := histPage(pid, histRec(wal.TagRelDelete, pid, 0, ""))
	p3 := histPage(pid, histRec(wal.TagRelInsert, pid, 1, "v1"))
	lsn1 := h.append(p1)
	lsn2 := h.append(p2)
	lsn3 := h.append(p3)
	// Rolled into the archive, crash before the drop: overlap.
	h.roll(pid, lsn1, p1)
	h.roll(pid, lsn2, p2)

	pages, damaged, err := partitionHistory(h.arch, h.log, h.archivedTo, pid)
	if err != nil || damaged != 0 {
		t.Fatalf("history: %v, %d damaged", err, damaged)
	}
	if len(pages) != 3 || pages[0].lsn != lsn1 || pages[1].lsn != lsn2 || pages[2].lsn != lsn3 {
		t.Fatalf("history = %+v, want LSNs %d %d %d each once", pages, lsn1, lsn2, lsn3)
	}
	p := replay(t, pid, pages)
	if _, err := p.Read(0); err == nil {
		t.Fatal("deleted slot 0 present after overlap replay")
	}
	if got, _ := p.Read(1); !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("slot1 = %q", got)
	}
}

func TestHistoryFiltersOtherPartitions(t *testing.T) {
	h := newHistMedia(t)
	pidA := addr.PartitionID{Segment: 2, Part: 0}
	pidB := addr.PartitionID{Segment: 2, Part: 1}
	pa := histPage(pidA, histRec(wal.TagRelInsert, pidA, 0, "a"))
	pb := histPage(pidB, histRec(wal.TagRelInsert, pidB, 0, "b"))
	lsnA := h.append(pa)
	lsnB := h.append(pb)
	h.append(histPage(pidA, histRec(wal.TagRelUpdate, pidA, 0, "a2")))
	h.roll(pidA, lsnA, pa)
	h.roll(pidB, lsnB, pb)
	h.drop(lsnB)

	pages, _, err := partitionHistory(h.arch, h.log, h.archivedTo, pidA)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 2 {
		t.Fatalf("pages = %d, want only partition A's two", len(pages))
	}
	if got, _ := replay(t, pidA, pages).Read(0); !bytes.Equal(got, []byte("a2")) {
		t.Fatalf("slot0 = %q", got)
	}
}

// rollingLog is a log window in which rollover strikes between the
// history reader's archive scan and its window scan: the first NextLSN
// call — the reader's first step after the archive — runs roll.
type rollingLog struct {
	*simdisk.DuplexLog
	roll func()
}

func (l *rollingLog) NextLSN() simdisk.LSN {
	if l.roll != nil {
		roll := l.roll
		l.roll = nil
		roll()
	}
	return l.DuplexLog.NextLSN()
}

func TestHistoryRereadsWhenRolloverMovesAPage(t *testing.T) {
	// Rollover moves pages log → archive under the SLT mutex; the history
	// reader holds no lock. A page archived and dropped after the archive
	// snapshot but before the window scan is on neither side of one pass.
	h := newHistMedia(t)
	pid := addr.PartitionID{Segment: 2, Part: 0}
	p1 := histPage(pid, histRec(wal.TagRelInsert, pid, 0, "v0"))
	lsn1 := h.append(p1)
	h.append(histPage(pid, histRec(wal.TagRelInsert, pid, 1, "v1")))
	log := &rollingLog{DuplexLog: h.log, roll: func() {
		h.roll(pid, lsn1, p1)
		h.drop(lsn1)
	}}

	pages, damaged, err := partitionHistory(h.arch, log, h.archivedTo, pid)
	if err != nil || damaged != 0 {
		t.Fatalf("history: %v, %d damaged", err, damaged)
	}
	if len(pages) != 2 || pages[0].lsn != lsn1 {
		t.Fatalf("history = %+v: the page rolled mid-read was lost", pages)
	}
	p := replay(t, pid, pages)
	for slot, want := range []string{"v0", "v1"} {
		if got, _ := p.Read(addr.Slot(slot)); string(got) != want {
			t.Fatalf("slot %d = %q, want %q", slot, got, want)
		}
	}
}

// TestRestoreLostImageFromArchiveLogAndTail drives the whole recovery
// transaction over a hand-built history: the image the catalog names is
// gone, the oldest pages (with a catalog root page between them) are in
// the archive, newer ones on the log disk — one of
// them still on the bin's page list — and the newest records in the
// bin's stable buffer. Every page applies exactly once, in LSN order,
// and the tail last.
func TestRestoreLostImageFromArchiveLogAndTail(t *testing.T) {
	h := newHarness(t, testCfg())
	pidA := addr.PartitionID{Segment: 2, Part: 0}
	pidB := addr.PartitionID{Segment: 3, Part: 1}
	appendLog := func(page []byte) simdisk.LSN {
		lsn, err := h.hw.Log.Append(page)
		if err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	p1 := histPage(pidA, histRec(wal.TagRelInsert, pidA, 0, "a0"), histRec(wal.TagRelInsert, pidA, 1, "a1"))
	p2 := histPage(pidB, histRec(wal.TagRelInsert, pidB, 0, "b0"))
	p3 := (&wal.Page{PID: rootPID, Records: (&catalog.Root{NextRelID: 5}).Encode()}).Encode()
	p4 := histPage(pidA, histRec(wal.TagRelUpdate, pidA, 0, "a0v2"), histRec(wal.TagRelDelete, pidA, 1, ""))
	lsn1, lsn2, lsn3, lsn4 := appendLog(p1), appendLog(p2), appendLog(p3), appendLog(p4)
	for _, a := range []struct {
		pid  addr.PartitionID
		lsn  simdisk.LSN
		page []byte
	}{{pidA, lsn1, p1}, {pidB, lsn2, p2}, {rootPID, lsn3, p3}} {
		if err := h.hw.Arch.AppendPage(a.pid, a.lsn, a.page); err != nil {
			t.Fatal(err)
		}
	}
	h.hw.Log.Drop(lsn3)

	tail, err := h.hw.Stable.NewBlock(512)
	if err != nil {
		t.Fatal(err)
	}
	r := histRec(wal.TagRelInsert, pidA, 2, "a2")
	if err := tail.Append(r.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	h.m.slt.st.mu.Lock()
	h.m.slt.st.lastArchived = lsn3
	b, err := h.m.slt.binForLocked(pidA)
	if err != nil {
		t.Fatal(err)
	}
	b.pages = []simdisk.LSN{lsn4}
	b.cur = tail
	h.m.slt.st.mu.Unlock()

	p, err := h.m.restorePartition(pidA, simdisk.TrackLoc(7)) // no such track
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Read(0); !bytes.Equal(got, []byte("a0v2")) {
		t.Fatalf("slot0 = %q, want the log-window update over the archived insert", got)
	}
	if _, err := p.Read(1); err == nil {
		t.Fatal("deleted slot1 present")
	}
	if got, _ := p.Read(2); !bytes.Equal(got, []byte("a2")) {
		t.Fatalf("slot2 = %q (bin tail lost)", got)
	}
	mt := h.m.Metrics()
	if q, r, f := mt.ImagesQuarantined.Value(), mt.ArchRebuilds.Value(), mt.ArchRebuildFailed.Value(); q != 1 || r != 1 || f != 0 {
		t.Fatalf("images_quarantined=%d rebuilds=%d rebuild_failed=%d, want 1 1 0", q, r, f)
	}
	if got := mt.RecoveryLogPages.Value(); got != 2 {
		t.Fatalf("log pages replayed = %d, want 2 (the bin-listed page once, not twice)", got)
	}
	if got := mt.QuarantinedRecords.Value(); got != 0 {
		t.Fatalf("quarantined records = %d, want 0", got)
	}
}

// TestRestoreCountsDecayedArchivePage: the image is lost and one page of
// the partition's archived history has decayed on the archive medium.
// The rebuild skips it, and the skip is detected rot: counted once in
// the rebuild trace's damage count and in
// restart/corrupt_records_detected, beside the lost image's own count.
func TestRestoreCountsDecayedArchivePage(t *testing.T) {
	cfg := testCfg()
	cfg.FlightRecorderBytes = 32 << 10
	h := newHarness(t, cfg)
	pid := addr.PartitionID{Segment: 2, Part: 0}
	p1 := histPage(pid, histRec(wal.TagRelInsert, pid, 0, "a0"))
	p2 := histPage(pid, histRec(wal.TagRelInsert, pid, 1, "a1"))
	var lsns []simdisk.LSN
	for _, page := range [][]byte{p1, p2} {
		lsn, err := h.hw.Log.Append(page)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	plan, err := fault.ParsePlan("seed=1;arch.append@1:corrupt")
	if err != nil {
		t.Fatal(err)
	}
	h.cfg.FaultInjector.Arm(plan)
	for i, page := range [][]byte{p1, p2} {
		if err := h.hw.Arch.AppendPage(pid, lsns[i], page); err != nil {
			t.Fatal(err)
		}
	}
	h.hw.Log.Drop(lsns[1])
	h.m.slt.st.mu.Lock()
	h.m.slt.st.lastArchived = lsns[1]
	h.m.slt.st.mu.Unlock()

	p, err := h.m.restorePartition(pid, simdisk.TrackLoc(7)) // no such track
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(0); err == nil {
		t.Fatal("slot0 present: the decayed page was applied")
	}
	if got, _ := p.Read(1); !bytes.Equal(got, []byte("a1")) {
		t.Fatalf("slot1 = %q: good history lost behind the decayed page", got)
	}
	var damaged []uint64
	for _, e := range h.m.TraceEvents() {
		if e.Kind == trace.KindArchiveRebuild {
			damaged = append(damaged, e.Arg2)
		}
	}
	if len(damaged) != 1 || damaged[0] != 1 {
		t.Fatalf("rebuild damage counts = %v, want one rebuild counting 1", damaged)
	}
	if got := h.m.Metrics().CorruptDetected.Value(); got != 2 {
		t.Fatalf("corrupt_records_detected = %d, want 2 (the lost image and the decayed page)", got)
	}
}
