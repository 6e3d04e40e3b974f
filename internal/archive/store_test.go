package archive

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/simdisk"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	st, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// pages collects every page ScanPartition delivers for pid, in order.
func pages(t *testing.T, st *Store, pid addr.PartitionID) map[simdisk.LSN]string {
	t.Helper()
	got := make(map[simdisk.LSN]string)
	last := simdisk.NilLSN
	if err := st.ScanPartition(pid, func(lsn simdisk.LSN, page []byte) error {
		if lsn <= last {
			t.Fatalf("%v: lsn %d delivered after %d", pid, lsn, last)
		}
		last = lsn
		got[lsn] = string(page)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestStoreScanPartitionSeparatesPartitions(t *testing.T) {
	st := newTestStore(t)
	pid := addr.PartitionID{Segment: 2, Part: 3}
	other := addr.PartitionID{Segment: 4, Part: 1}
	if err := st.AppendPage(pid, 7, []byte("page-7")); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendPage(other, 3, []byte("other-3")); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendPage(pid, 8, []byte("page-8")); err != nil {
		t.Fatal(err)
	}
	if n := st.Entries(); n != 3 {
		t.Fatalf("Entries = %d", n)
	}
	if got := fmt.Sprint(pages(t, st, pid)); got != "map[7:page-7 8:page-8]" {
		t.Fatalf("%v: %s", pid, got)
	}
	if got := fmt.Sprint(pages(t, st, other)); got != "map[3:other-3]" {
		t.Fatalf("%v: %s", other, got)
	}
}

func TestStoreMultiFrameEntry(t *testing.T) {
	st := newTestStore(t)
	pid := addr.PartitionID{Segment: 1, Part: 1}
	big := bytes.Repeat([]byte{0x5A}, 3*frameCap+17) // spans 4 frames
	if err := st.AppendPage(pid, 1, big); err != nil {
		t.Fatal(err)
	}
	got := pages(t, st, pid)
	if len(got) != 1 || got[1] != string(big) {
		t.Fatalf("multi-frame entry: %d pages, data intact %v", len(got), got[1] == string(big))
	}
}

func TestStoreSealRotationAndPartitionIndex(t *testing.T) {
	st, err := Open("", 2048) // tiny segments force rotation
	if err != nil {
		t.Fatal(err)
	}
	var seals int
	st.SetOnSeal(func() { seals++ })
	pidA := addr.PartitionID{Segment: 2, Part: 0}
	pidB := addr.PartitionID{Segment: 2, Part: 1}
	for lsn := simdisk.LSN(1); lsn <= 40; lsn++ {
		pid := pidA
		if lsn%2 == 0 {
			pid = pidB
		}
		if err := st.AppendPage(pid, lsn, bytes.Repeat([]byte{byte(lsn)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Segments() < 2 {
		t.Fatalf("segments = %d, want rotation", st.Segments())
	}
	if st.SealedSegments() == 0 || seals != st.SealedSegments() {
		t.Fatalf("sealed = %d, onSeal fired %d times", st.SealedSegments(), seals)
	}
	// ScanPartition walks the per-segment directories: only A's pages, in
	// LSN order, with the right bytes.
	want := simdisk.LSN(1)
	if err := st.ScanPartition(pidA, func(lsn simdisk.LSN, page []byte) error {
		if lsn != want {
			t.Fatalf("lsn %d out of order, want %d", lsn, want)
		}
		if !bytes.Equal(page, bytes.Repeat([]byte{byte(lsn)}, 100)) {
			t.Fatalf("lsn %d bytes mangled", lsn)
		}
		want += 2
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want != 41 {
		t.Fatalf("visited up to lsn %d, want all 20 A-pages", want-2)
	}
}

func TestStoreDuplicateLSNDeliveredOnce(t *testing.T) {
	// Rollover appends are at-least-once across a crash: the same
	// (PID, LSN) can land twice. Readers must deliver it once.
	st := newTestStore(t)
	pid := addr.PartitionID{Segment: 2, Part: 0}
	for i := 0; i < 2; i++ {
		if err := st.AppendPage(pid, 5, []byte("dup")); err != nil {
			t.Fatal(err)
		}
	}
	var n int
	if err := st.ScanPartition(pid, func(simdisk.LSN, []byte) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("duplicate LSN delivered %d times", n)
	}
}

func TestStoreReopenFromDirSurvivesProcess(t *testing.T) {
	// The acceptance bar for "real archive": everything written and
	// synced is still there when a new Store opens the same directory —
	// nothing lives only in process memory.
	dir := t.TempDir()
	pid := addr.PartitionID{Segment: 2, Part: 0}
	st, err := Open(dir, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for lsn := simdisk.LSN(1); lsn <= 30; lsn++ {
		if err := st.AppendPage(pid, lsn, bytes.Repeat([]byte{byte(lsn)}, 80)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	entries, sealed := st.Entries(), st.SealedSegments()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if sealed == 0 {
		t.Fatal("test needs at least one sealed segment")
	}

	st2, err := Open(dir, 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Entries() != entries {
		t.Fatalf("reopened entries = %d, want %d", st2.Entries(), entries)
	}
	if st2.SealedSegments() != sealed {
		t.Fatalf("reopened sealed = %d, want %d", st2.SealedSegments(), sealed)
	}
	want := simdisk.LSN(1)
	if err := st2.ScanPartition(pid, func(lsn simdisk.LSN, page []byte) error {
		if lsn != want || !bytes.Equal(page, bytes.Repeat([]byte{byte(lsn)}, 80)) {
			t.Fatalf("reopened lsn %d (want %d) mangled", lsn, want)
		}
		want++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want != 31 {
		t.Fatalf("reopened scan stopped at lsn %d", want-1)
	}
	// And appends resume on the unsealed tail.
	if err := st2.AppendPage(pid, 31, []byte("resumed")); err != nil {
		t.Fatal(err)
	}
	if st2.Entries() != entries+1 {
		t.Fatalf("resumed entries = %d", st2.Entries())
	}
}

func TestStoreReopenRepairsTornTail(t *testing.T) {
	// A crash mid-append leaves a partial frame at the end of the active
	// segment. Open must truncate it away logically and resume appends
	// over it without losing the clean prefix.
	dir := t.TempDir()
	pid := addr.PartitionID{Segment: 2, Part: 0}
	st, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendPage(pid, 1, []byte("before-crash")); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("segments on disk = %v, %v", names, err)
	}
	path := filepath.Join(dir, names[0].Name())
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0xEE}, 100)); err != nil { // torn tail
		t.Fatal(err)
	}
	f.Close()

	st2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Entries() != 1 {
		t.Fatalf("entries after tail repair = %d", st2.Entries())
	}
	if err := st2.AppendPage(pid, 2, []byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(pages(t, st2, pid)); got != "map[1:before-crash 2:after-crash]" {
		t.Fatalf("pages after repair = %s", got)
	}
}

func TestDecodeSegmentResyncsPastDamage(t *testing.T) {
	pid := addr.PartitionID{Segment: 2, Part: 0}
	var buf []byte
	buf = append(buf, encodeEntry(EntryLogPage, pid, 1, []byte("one"))...)
	mid := len(buf)
	buf = append(buf, encodeEntry(EntryLogPage, pid, 2, []byte("two"))...)
	buf = append(buf, encodeEntry(EntryLogPage, pid, 3, []byte("three"))...)
	buf[mid+10] ^= 0xFF // rot inside the middle entry's only frame

	entries, clean, damaged, err := DecodeSegment(buf)
	if damaged != 1 || err == nil {
		t.Fatalf("damaged = %d, err = %v", damaged, err)
	}
	if clean != len(buf) {
		t.Fatalf("clean = %d, want %d (resync past the bad frame)", clean, len(buf))
	}
	if len(entries) != 2 || entries[0].LSN != 1 || entries[1].LSN != 3 {
		t.Fatalf("entries = %+v, want LSNs 1 and 3", entries)
	}
}

// An audit-trail spool block (kind 0xA5) from a segment written before
// the kind was retired is a damaged entry: counted, skipped, and the
// pages around it still decode.
func TestDecodeSegmentSkipsRetiredAuditKind(t *testing.T) {
	pid := addr.PartitionID{Segment: 2, Part: 0}
	var buf []byte
	buf = append(buf, encodeEntry(EntryLogPage, pid, 1, []byte("one"))...)
	buf = append(buf, encodeEntry(0xA5, addr.PartitionID{}, 0, []byte("audit"))...)
	buf = append(buf, encodeEntry(EntryLogPage, pid, 2, []byte("two"))...)
	entries, clean, damaged, err := DecodeSegment(buf)
	if damaged != 1 || err == nil {
		t.Fatalf("damaged = %d, err = %v; want the audit entry counted", damaged, err)
	}
	if clean != len(buf) {
		t.Fatalf("clean = %d, want %d", clean, len(buf))
	}
	if len(entries) != 2 || entries[0].LSN != 1 || entries[1].LSN != 2 {
		t.Fatalf("entries = %+v, want the two pages", entries)
	}
}

func TestDecodeSegmentTornTail(t *testing.T) {
	pid := addr.PartitionID{Segment: 2, Part: 0}
	whole := encodeEntry(EntryLogPage, pid, 1, []byte("whole"))
	multi := encodeEntry(EntryLogPage, pid, 2, bytes.Repeat([]byte{9}, 2*frameCap))
	// Crash after the multi-frame entry's first frame only.
	buf := append(append([]byte(nil), whole...), multi[:FrameSize]...)
	entries, clean, _, _ := DecodeSegment(buf)
	if len(entries) != 1 || entries[0].LSN != 1 {
		t.Fatalf("entries = %+v", entries)
	}
	if clean != len(whole) {
		t.Fatalf("clean = %d, want %d (resume over the unclosed entry)", clean, len(whole))
	}
}

// fill appends n 100-byte pages spread over pids, LSNs from first on.
func fill(t *testing.T, st *Store, pids []addr.PartitionID, first simdisk.LSN, n int) {
	t.Helper()
	for lsn := first; lsn < first+simdisk.LSN(n); lsn++ {
		if err := st.AppendPage(pids[int(lsn)%len(pids)], lsn, bytes.Repeat([]byte{byte(lsn)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
}

// Sealed is derived at Open, not read from the segment: every segment but
// the last is sealed, and the last is if it is full. Appends after a
// reopen therefore land where they would have landed without one.
func TestStoreReopenResumesOnTheRightSegment(t *testing.T) {
	pids := []addr.PartitionID{{Segment: 2, Part: 0}, {Segment: 2, Part: 1}, {Segment: 3, Part: 0}}
	for _, tc := range []struct {
		name                string
		n                   int
		segs, sealed, after int // segments and sealed ones at reopen; segments after one more append
	}{
		// A 100-byte page is one 256-byte frame: eight fill a segment.
		{"last segment full", 16, 2, 2, 3},
		{"last segment part-full", 19, 3, 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, 2048)
			if err != nil {
				t.Fatal(err)
			}
			fill(t, st, pids, 1, tc.n)
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			before := make([]map[simdisk.LSN]string, len(pids))
			for i, pid := range pids {
				before[i] = pages(t, st, pid)
			}
			st.Close()

			st2, err := Open(dir, 2048)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if st2.Segments() != tc.segs || st2.SealedSegments() != tc.sealed {
				t.Fatalf("reopened %d segments, %d sealed; want %d, %d", st2.Segments(), st2.SealedSegments(), tc.segs, tc.sealed)
			}
			for i, pid := range pids {
				if got := pages(t, st2, pid); fmt.Sprint(got) != fmt.Sprint(before[i]) {
					t.Fatalf("%v after reopen:\n got %v\nwant %v", pid, got, before[i])
				}
			}
			fill(t, st2, pids, simdisk.LSN(tc.n+1), 1)
			if st2.Segments() != tc.after {
				t.Fatalf("append after reopen: %d segments, want %d", st2.Segments(), tc.after)
			}
			if got := pages(t, st2, pids[(tc.n+1)%len(pids)]); len(got) != len(before[(tc.n+1)%len(pids)])+1 {
				t.Fatalf("resumed page not delivered: %d pages", len(got))
			}
		})
	}
}

// retiredIndexEntry renders the page directory entry (kind 0x49) that
// older builds appended to a segment when they sealed it: a count, then
// per page segment(4) part(4) lsn(8) off(8), all little-endian.
func retiredIndexEntry(recs []indexRec) []byte {
	data := binary.LittleEndian.AppendUint32(nil, uint32(len(recs)))
	for _, r := range recs {
		data = binary.LittleEndian.AppendUint32(data, uint32(r.pid.Segment))
		data = binary.LittleEndian.AppendUint32(data, uint32(r.pid.Part))
		data = binary.LittleEndian.AppendUint64(data, uint64(r.lsn))
		data = binary.LittleEndian.AppendUint64(data, uint64(r.off))
	}
	return encodeEntry(0x49, addr.PartitionID{}, 0, data)
}

// A segment sealed by an older build ends in its page directory entry.
// The entry is now a damaged kind: skipped, never delivered, and every
// page before it still is.
func TestStoreReopensSegmentWithRetiredIndexEntry(t *testing.T) {
	dir := t.TempDir()
	pid := addr.PartitionID{Segment: 2, Part: 0}
	var seg []byte
	var recs []indexRec
	for lsn := simdisk.LSN(1); lsn <= 8; lsn++ {
		recs = append(recs, indexRec{pid: pid, lsn: lsn, off: int64(len(seg))})
		seg = append(seg, encodeEntry(EntryLogPage, pid, lsn, bytes.Repeat([]byte{byte(lsn)}, 100))...)
	}
	seg = append(seg, retiredIndexEntry(recs)...)
	if _, _, damaged, err := DecodeSegment(seg); damaged != 1 || err == nil {
		t.Fatalf("retired index entry: damaged %d, err %v", damaged, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000000"+segSuffix), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Entries() != 8 || st.SealedSegments() != 1 {
		t.Fatalf("entries %d, sealed %d; want 8, 1", st.Entries(), st.SealedSegments())
	}
	got := pages(t, st, pid)
	for lsn := simdisk.LSN(1); lsn <= 8; lsn++ {
		if got[lsn] != string(bytes.Repeat([]byte{byte(lsn)}, 100)) {
			t.Fatalf("lsn %d: %q", lsn, got[lsn])
		}
	}
	if len(got) != 8 {
		t.Fatalf("%d pages delivered, want 8", len(got))
	}
	if err := st.AppendPage(pid, 9, []byte("next")); err != nil {
		t.Fatal(err)
	}
	if st.Segments() != 2 {
		t.Fatalf("append after a sealed old segment: %d segments, want 2", st.Segments())
	}
}
