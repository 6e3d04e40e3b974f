package archive

import (
	"bytes"
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

func TestStoreScanOrderAndKinds(t *testing.T) {
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
	var got []Entry
	if err := st.Scan(func(e Entry) error {
		e.Data = append([]byte(nil), e.Data...)
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("scanned %d entries", len(got))
	}
	if got[0].Kind != EntryLogPage || got[0].PID != pid || got[0].LSN != 7 || !bytes.Equal(got[0].Data, []byte("page-7")) {
		t.Fatalf("entry 0 = %+v", got[0])
	}
	if got[1].Kind != EntryLogPage || got[1].PID != other || got[1].LSN != 3 || !bytes.Equal(got[1].Data, []byte("other-3")) {
		t.Fatalf("entry 1 = %+v", got[1])
	}
	if got[2].Kind != EntryLogPage || got[2].LSN != 8 {
		t.Fatalf("entry 2 = %+v", got[2])
	}
}

func TestStoreMultiFrameEntry(t *testing.T) {
	st := newTestStore(t)
	pid := addr.PartitionID{Segment: 1, Part: 1}
	big := bytes.Repeat([]byte{0x5A}, 3*frameCap+17) // spans 4 frames
	if err := st.AppendPage(pid, 1, big); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := st.Scan(func(e Entry) error {
		n++
		if !bytes.Equal(e.Data, big) {
			t.Fatal("multi-frame entry data mangled")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("scanned %d entries", n)
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
	// ScanPartition walks the per-segment indexes: only A's pages, in
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
	var got [][]byte
	if err := st2.Scan(func(e Entry) error {
		got = append(got, append([]byte(nil), e.Data...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got[0], []byte("before-crash")) || !bytes.Equal(got[1], []byte("after-crash")) {
		t.Fatalf("entries after repair = %q", got)
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

func TestIndexRoundtrip(t *testing.T) {
	recs := []indexRec{
		{pid: addr.PartitionID{Segment: 3, Part: 1}, lsn: 9, off: 512},
		{pid: addr.PartitionID{Segment: 2, Part: 7}, lsn: 4, off: 0},
		{pid: addr.PartitionID{Segment: 2, Part: 7}, lsn: 2, off: 256},
	}
	got, err := DecodeIndex(encodeIndex(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d records", len(got))
	}
	// encodeIndex sorts by (PID, LSN).
	if got[0].lsn != 2 || got[1].lsn != 4 || got[2].lsn != 9 {
		t.Fatalf("index order = %+v", got)
	}
	if got[0].off != 256 || got[2].pid.Segment != 3 {
		t.Fatalf("index fields = %+v", got)
	}
}
