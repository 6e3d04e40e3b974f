package archive

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/fault"
	"mmdb/internal/simdisk"
	"mmdb/internal/wal"
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

func TestStoreOpenRefusesDirectory(t *testing.T) {
	if _, err := Open("archive", 0); err == nil {
		t.Fatal("Open with a directory succeeded; the store is in memory")
	}
}

// faultyStore returns an empty store with an injector armed with plan.
func faultyStore(t *testing.T, plan string) (*Store, *fault.Injector) {
	t.Helper()
	p, err := fault.ParsePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t)
	inj := fault.NewInjector(p)
	st.SetInjector(inj)
	return st, inj
}

// A crash mid-append leaves a prefix of the entry's frames in the
// segment, the whole first frame included. None of it is visible, and
// the retried append is delivered once.
func TestAppendTornIsInvisibleAndRetried(t *testing.T) {
	st, inj := faultyStore(t, "seed=1;arch.append@2:crash-torn:300")
	pid := addr.PartitionID{Segment: 2, Part: 0}
	big := bytes.Repeat([]byte{0x5A}, 2*frameCap) // three frames
	if err := st.AppendPage(pid, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendPage(pid, 2, big); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("torn append: %v, want the crash", err)
	}
	inj.ClearCrash()
	if n := st.Entries(); n != 1 {
		t.Fatalf("Entries = %d after the torn append, want 1", n)
	}
	if got := fmt.Sprint(pages(t, st, pid)); got != "map[1:one]" {
		t.Fatalf("after the torn append: %s", got)
	}
	if err := st.AppendPage(pid, 2, big); err != nil {
		t.Fatal(err)
	}
	got := pages(t, st, pid)
	if len(got) != 2 || got[1] != "one" || got[2] != string(big) || st.Entries() != 2 {
		t.Fatalf("after the retry: %d pages, %d entries", len(got), st.Entries())
	}
}

// An I/O error reaches no byte of the device.
func TestAppendIOErrLeavesStoreUnchanged(t *testing.T) {
	st, _ := faultyStore(t, "seed=1;arch.append@2:ioerr")
	pid := addr.PartitionID{Segment: 2, Part: 0}
	if err := st.AppendPage(pid, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	seg := st.segs[0]
	before := append([]byte(nil), seg.b...)
	if err := st.AppendPage(pid, 2, []byte("two")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append: %v, want the injected error", err)
	}
	if st.Entries() != 1 || st.Segments() != 1 || seg.size != FrameSize || len(seg.index) != 1 {
		t.Fatalf("entries %d, segments %d, size %d, directory %d", st.Entries(), st.Segments(), seg.size, len(seg.index))
	}
	if !bytes.Equal(seg.b, before) {
		t.Fatal("segment bytes changed")
	}
	if got := fmt.Sprint(pages(t, st, pid)); got != "map[1:one]" {
		t.Fatalf("after the I/O error: %s", got)
	}
}

// A corrupt append succeeds while the device decays: the entry is
// counted but skipped on every read, and the entries around it are not.
func TestAppendCorruptEntrySkippedOnRead(t *testing.T) {
	st, _ := faultyStore(t, "seed=1;arch.append@2:corrupt")
	pid := addr.PartitionID{Segment: 2, Part: 0}
	for lsn, page := range []string{"one", "two", "three"} {
		if err := st.AppendPage(pid, simdisk.LSN(lsn+1), []byte(page)); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.Entries(); n != 3 {
		t.Fatalf("Entries = %d, want 3", n)
	}
	for i := 0; i < 2; i++ {
		if got := fmt.Sprint(pages(t, st, pid)); got != "map[1:one 3:three]" {
			t.Fatalf("read %d: %s", i, got)
		}
	}
}

// A mutation rots the page before it is framed, so the frames pass
// their CRCs and the page is delivered; the wal page CRC catches it.
func TestAppendMutationCaughtByPageCRC(t *testing.T) {
	pid := addr.PartitionID{Segment: 2, Part: 0}
	page := (&wal.Page{PID: pid, Records: bytes.Repeat([]byte{0xA7, 0x3C}, 300)}).Encode()
	for _, act := range []string{"flip", "zero", "trunc", "splice"} {
		t.Run(act, func(t *testing.T) {
			st, _ := faultyStore(t, "seed=1;arch.append@1:"+act)
			if err := st.AppendPage(pid, 1, page); err != nil {
				t.Fatal(err)
			}
			got := pages(t, st, pid)
			if len(got) != 1 || got[1] == string(page) {
				t.Fatalf("%d pages delivered, intact %v; want the rotted page", len(got), got[1] == string(page))
			}
			if _, err := wal.DecodePage([]byte(got[1])); err == nil {
				t.Fatal("wal.DecodePage accepted the rotted page")
			}
		})
	}
}
