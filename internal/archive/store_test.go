package archive

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
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

// decayed stands in for the nil page ScanPartition reports for an LSN
// whose every copy has decayed.
const decayed = "<decayed>"

// pages collects every page ScanPartition reports for pid.
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
		if page == nil {
			got[lsn] = decayed
		}
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

// A crashed rollover retries from the last LSN it dropped, so a
// partition's pages can reach the archive out of LSN order: 7..12 again
// after 12. They come back ascending, each once, with their bytes.
func TestStoreAscendingAcrossRetriedRoll(t *testing.T) {
	st := newTestStore(t)
	pidA := addr.PartitionID{Segment: 2, Part: 0}
	pidB := addr.PartitionID{Segment: 2, Part: 1}
	body := func(lsn simdisk.LSN) []byte { return bytes.Repeat([]byte{byte(lsn)}, 100) }
	roll := func(from, to simdisk.LSN) {
		for lsn := from; lsn <= to; lsn++ {
			pid := pidA
			if lsn%2 == 0 {
				pid = pidB
			}
			if err := st.AppendPage(pid, lsn, body(lsn)); err != nil {
				t.Fatal(err)
			}
		}
	}
	roll(1, 12)
	roll(7, 12) // the retried roll
	want := simdisk.LSN(1)
	if err := st.ScanPartition(pidA, func(lsn simdisk.LSN, page []byte) error {
		if lsn != want {
			t.Fatalf("lsn %d out of order, want %d", lsn, want)
		}
		if !bytes.Equal(page, body(lsn)) {
			t.Fatalf("lsn %d bytes mangled", lsn)
		}
		want += 2
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want != 13 {
		t.Fatalf("visited up to lsn %d, want all six A-pages", want-2)
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
	if _, err := Open("", 1<<20); err == nil {
		t.Fatal("Open with a segment size succeeded; the store keeps whole pages")
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

// A crash mid-append stores nothing of the page, and the retried append
// is delivered once.
func TestAppendTornIsInvisibleAndRetried(t *testing.T) {
	st, inj := faultyStore(t, "seed=1;arch.append@2:crash-torn:300")
	pid := addr.PartitionID{Segment: 2, Part: 0}
	big := bytes.Repeat([]byte{0x5A}, 600)
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

// An I/O error reaches nothing of the device.
func TestAppendIOErrLeavesStoreUnchanged(t *testing.T) {
	st, _ := faultyStore(t, "seed=1;arch.append@2:ioerr")
	pid := addr.PartitionID{Segment: 2, Part: 0}
	if err := st.AppendPage(pid, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendPage(pid, 2, []byte("two")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append: %v, want the injected error", err)
	}
	if st.Entries() != 1 || len(st.parts[pid]) != 1 {
		t.Fatalf("entries %d, pages stored %d", st.Entries(), len(st.parts[pid]))
	}
	if got := fmt.Sprint(pages(t, st, pid)); got != "map[1:one]" {
		t.Fatalf("after the I/O error: %s", got)
	}
}

// A corrupt append succeeds while the device decays: the page is
// counted, and every read reports it decayed without delivering it,
// while the pages around it are delivered. A retried roll that archives
// the LSN again is delivered from its clean copy.
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
		if got := fmt.Sprint(pages(t, st, pid)); got != "map[1:one 2:"+decayed+" 3:three]" {
			t.Fatalf("read %d: %s", i, got)
		}
	}
	if err := st.AppendPage(pid, 2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(pages(t, st, pid)); got != "map[1:one 2:two 3:three]" {
		t.Fatalf("after the retried roll: %s", got)
	}
}

// A corrupt read decays the stored page in place: that read and every
// later one report it decayed, and a decayed page costs no further
// arch.read hit. An I/O error on read stops the scan.
func TestReadCorruptDecaysInPlace(t *testing.T) {
	st, inj := faultyStore(t, "seed=1;arch.read@2:corrupt,arch.read@5:ioerr")
	pid := addr.PartitionID{Segment: 2, Part: 0}
	for lsn, page := range []string{"one", "two", "three"} {
		if err := st.AppendPage(pid, simdisk.LSN(lsn+1), []byte(page)); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(pages(t, st, pid)); got != "map[1:one 2:"+decayed+" 3:three]" {
		t.Fatalf("first read: %s", got)
	}
	if n := inj.Hits()[fault.PointArchRead]; n != 3 {
		t.Fatalf("arch.read hits = %d after one scan, want 3", n)
	}
	err := st.ScanPartition(pid, func(simdisk.LSN, []byte) error { return nil })
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("second read: %v, want the injected error", err)
	}
	if got := fmt.Sprint(pages(t, st, pid)); got != "map[1:one 2:"+decayed+" 3:three]" {
		t.Fatalf("third read: %s", got)
	}
}

// A mutation rots the stored page under valid ECC, so the page is
// delivered; the wal page CRC catches it.
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

// The store keeps the page it is handed, as the log disks do: a clean
// append stores the buffer itself and a scan returns it, while a
// mutated append stores a damaged copy and leaves the buffer intact.
func TestPageBytesNeverChange(t *testing.T) {
	st, _ := faultyStore(t, "seed=1;arch.append@2:flip")
	pid := addr.PartitionID{Segment: 2, Part: 0}
	clean := (&wal.Page{PID: pid, Records: bytes.Repeat([]byte{0xA7, 0x3C}, 300)}).Encode()
	rotted := (&wal.Page{PID: pid, Records: bytes.Repeat([]byte{0x5A}, 600)}).Encode()
	want := bytes.Clone(rotted)
	for lsn, page := range [][]byte{clean, rotted} {
		if err := st.AppendPage(pid, simdisk.LSN(lsn+1), page); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(rotted, want) {
		t.Fatal("a mutated append damaged the caller's buffer")
	}
	if err := st.ScanPartition(pid, func(lsn simdisk.LSN, page []byte) error {
		switch {
		case lsn == 1 && &page[0] != &clean[0]:
			t.Error("a clean append did not keep the handed buffer")
		case lsn == 2 && (bytes.Equal(page, want) || &page[0] == &rotted[0]):
			t.Error("a mutated append did not store a damaged copy")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// Rollover appends while a rebuild scans the same partition, and a
// corrupt read decays a page mid-run. Every scan sees an ascending run
// of intact pages from LSN 1, whatever the appends have reached; run it
// under -race.
func TestAppendRacesScan(t *testing.T) {
	st, _ := faultyStore(t, "seed=1;arch.read@40:corrupt")
	pid := addr.PartitionID{Segment: 2, Part: 0}
	const n = 400
	body := func(lsn simdisk.LSN) []byte { return []byte(fmt.Sprintf("page-%d", lsn)) }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lsn := simdisk.LSN(1); lsn <= n; lsn++ {
			if err := st.AppendPage(pid, lsn, body(lsn)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for scans := 0; scans < 50; scans++ {
		next := simdisk.LSN(1)
		if err := st.ScanPartition(pid, func(lsn simdisk.LSN, page []byte) error {
			if lsn != next {
				return fmt.Errorf("lsn %d, want %d", lsn, next)
			}
			next++
			if page != nil && !bytes.Equal(page, body(lsn)) {
				return fmt.Errorf("lsn %d: %q", lsn, page)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	got, bad := pages(t, st, pid), 0
	for _, page := range got {
		if page == decayed {
			bad++
		}
	}
	if len(got) != n || bad != 1 {
		t.Fatalf("%d pages after the appends, %d decayed; want %d and 1", len(got), bad, n)
	}
}
