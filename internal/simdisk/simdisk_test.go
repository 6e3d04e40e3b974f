package simdisk

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mmdb/internal/fault"
	"mmdb/internal/metrics"
)

func TestLogDiskAppendRead(t *testing.T) {
	d := NewLogDisk(DefaultParams(), &metrics.Counter{})
	lsn1, err := d.Append([]byte("page-one"))
	if err != nil {
		t.Fatal(err)
	}
	lsn2, err := d.Append([]byte("page-two"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn1 != 1 || lsn2 != 2 {
		t.Fatalf("LSNs = %d, %d; want 1, 2", lsn1, lsn2)
	}
	p, err := d.Read(lsn1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, []byte("page-one")) {
		t.Fatalf("Read = %q", p)
	}
	if _, err := d.Read(99); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("missing page: got %v", err)
	}
}

// testPage returns an n-byte page whose bytes depend on seed.
func testPage(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7) + seed
	}
	return p
}

// TestLogPageBytesNeverChange holds the log disks to their immutability
// invariant, as TestTrackBytesNeverChange holds the checkpoint disk: a
// duplexed append stores the caller's buffer on both spindles and a
// clean read returns it; a read mutation returns a damaged private copy
// and the next clean read the original bytes; a write mutation stores a
// damaged copy on its spindle only; and a torn write keeps a capped
// prefix of the buffer, with the ECC-bad flag on its spindle only.
func TestLogPageBytesNeverChange(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Point: fault.PointLogReadPrimary, Hit: 2, Act: fault.ActMutFlip},
		{Point: fault.PointLogWriteMirror, Hit: 2, Act: fault.ActMutFlip},
		{Point: fault.PointLogWriteMirror, Hit: 3, Act: fault.ActCrashTorn, Torn: 100},
	}})
	d := NewDuplexLog(DefaultParams(), nil)
	d.Primary.SetInjector(inj, fault.PointLogWritePrimary, fault.PointLogReadPrimary)
	d.Mirror.SetInjector(inj, fault.PointLogWriteMirror, fault.PointLogReadMirror)
	stored := func(s *LogDisk, lsn LSN, page []byte) {
		t.Helper()
		data, bad, ok := s.PageState(lsn)
		if !ok || bad || len(data) != len(page) || &data[0] != &page[0] {
			t.Fatalf("LSN %d (ok %v, bad %v) is not a clean sector holding the appended buffer", lsn, ok, bad)
		}
	}

	page := testPage(2048, 0)
	want := bytes.Clone(page)
	lsn, err := d.Append(page)
	if err != nil {
		t.Fatal(err)
	}
	stored(d.Primary, lsn, page)
	stored(d.Mirror, lsn, page)
	got, err := d.Read(lsn) // primary read hit 1: clean
	if err != nil || &got[0] != &page[0] {
		t.Fatalf("a clean read (err %v) did not return the appended buffer", err)
	}
	got, err = d.Primary.Read(lsn) // hit 2: flipped
	if err != nil || bytes.Equal(got, want) || &got[0] == &page[0] {
		t.Fatal("a mutated read did not return a damaged private copy")
	}
	got, err = d.Read(lsn)
	if err != nil || !bytes.Equal(got, want) || !bytes.Equal(page, want) || &got[0] != &page[0] {
		t.Fatal("a read mutation changed the stored page")
	}

	page2 := testPage(2048, 1)
	want2 := bytes.Clone(page2)
	lsn2, err := d.Append(page2) // mirror write hit 2: flipped
	if err != nil {
		t.Fatal(err)
	}
	stored(d.Primary, lsn2, page2)
	if md, bad, ok := d.Mirror.PageState(lsn2); !ok || bad || bytes.Equal(md, want2) || &md[0] == &page2[0] {
		t.Fatal("a write mutation did not store a damaged copy on the mirror")
	}
	if !bytes.Equal(page2, want2) {
		t.Fatal("a write mutation damaged the caller's buffer")
	}

	page3 := testPage(2048, 2)
	want3 := bytes.Clone(page3)
	if _, err := d.Append(page3); !fault.IsCrash(err) { // mirror write hit 3: torn
		t.Fatalf("torn append: %v, want crash", err)
	}
	lsn3 := lsn2 + 1
	stored(d.Primary, lsn3, page3)
	md, bad, ok := d.Mirror.PageState(lsn3)
	if !ok || !bad || len(md) != 100 || cap(md) != 100 || &md[0] != &page3[0] {
		t.Fatalf("torn mirror sector: ok %v, bad %v, len %d, cap %d; want a bad 100-byte capped prefix of the buffer",
			ok, bad, len(md), cap(md))
	}
	if !bytes.Equal(page3, want3) {
		t.Fatal("a torn write changed the caller's buffer")
	}
}

func TestLogDiskDrop(t *testing.T) {
	d := NewLogDisk(DefaultParams(), nil)
	for i := 0; i < 5; i++ {
		if _, err := d.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	d.Drop(3)
	if got := d.PageCount(); got != 2 {
		t.Fatalf("PageCount after Drop = %d, want 2", got)
	}
	if _, err := d.Read(3); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("dropped page still readable: %v", err)
	}
	if _, err := d.Read(4); err != nil {
		t.Fatalf("retained page unreadable: %v", err)
	}
	if d.NextLSN() != 6 {
		t.Fatalf("NextLSN = %d, want 6", d.NextLSN())
	}
	holds := func(d *LogDisk, want ...LSN) {
		t.Helper()
		if got := d.LSNs(); !slices.Equal(got, want) {
			t.Fatalf("disk holds %v, want %v", got, want)
		}
	}
	// Repeated drops, and drops at or below what is already gone.
	d.Drop(4)
	holds(d, 5)
	d.Drop(4)
	d.Drop(2)
	holds(d, 5)
	for i := 0; i < 3; i++ {
		if _, err := d.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	d.Drop(6)
	holds(d, 7, 8)

	// Fail empties the disk; after Repair the sequence resumes and drops
	// as before.
	d.Fail()
	d.Repair()
	holds(d)
	for i := 0; i < 3; i++ {
		if _, err := d.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	holds(d, 9, 10, 11)
	d.Drop(10)
	holds(d, 11)

	// A failed append leaves the mirror a hole; drops step over it.
	inj := fault.NewInjector(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Point: fault.PointLogWriteMirror, Hit: 2, Act: fault.ActIOErr},
	}})
	dx := NewDuplexLog(DefaultParams(), nil)
	dx.Mirror.SetInjector(inj, fault.PointLogWriteMirror, fault.PointLogReadMirror)
	for i := 0; i < 5; i++ {
		if _, err := dx.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	holds(dx.Mirror, 1, 3, 4, 5)
	dx.Mirror.Drop(2)
	holds(dx.Mirror, 3, 4, 5)

	// A repair rewrites a page below the mirror's mark; the next drop
	// must still release it.
	dx.Mirror.Drop(3)
	if _, err := dx.Read(2); err != nil {
		t.Fatal(err)
	}
	holds(dx.Mirror, 2, 4, 5)
	dx.Drop(4)
	holds(dx.Mirror, 5)
	holds(dx.Primary, 5)
}

func TestLogDiskFailRepair(t *testing.T) {
	d := NewLogDisk(DefaultParams(), nil)
	lsn, _ := d.Append([]byte("x"))
	d.Fail()
	if _, err := d.Append([]byte("y")); !errors.Is(err, ErrMediaFailure) {
		t.Fatalf("append on failed disk: %v", err)
	}
	if _, err := d.Read(lsn); !errors.Is(err, ErrMediaFailure) {
		t.Fatalf("read on failed disk: %v", err)
	}
	d.Repair()
	// Contents were lost with the medium; new writes work.
	if _, err := d.Read(lsn); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("read after repair: %v", err)
	}
	if _, err := d.Append([]byte("z")); err != nil {
		t.Fatal(err)
	}
}

func TestDuplexSurvivesSingleFailure(t *testing.T) {
	dx := NewDuplexLog(DefaultParams(), &metrics.Counter{})
	lsn, err := dx.Append([]byte("dup"))
	if err != nil {
		t.Fatal(err)
	}
	dx.Primary.Fail()
	p, err := dx.Read(lsn)
	if err != nil {
		t.Fatalf("read after primary failure: %v", err)
	}
	if !bytes.Equal(p, []byte("dup")) {
		t.Fatalf("mirror served %q", p)
	}
	// Appends continue on the mirror.
	lsn2, err := dx.Append([]byte("dup2"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn2 <= lsn {
		t.Fatalf("LSN did not advance: %d after %d", lsn2, lsn)
	}
	if _, err := dx.Read(lsn2); err != nil {
		t.Fatal(err)
	}
}

func TestDuplexLSNsAgree(t *testing.T) {
	dx := NewDuplexLog(DefaultParams(), nil)
	for i := 0; i < 10; i++ {
		lsn, err := dx.Append([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		pp, err1 := dx.Primary.Read(lsn)
		pm, err2 := dx.Mirror.Read(lsn)
		if err1 != nil || err2 != nil {
			t.Fatalf("read errs: %v, %v", err1, err2)
		}
		if !bytes.Equal(pp, pm) {
			t.Fatalf("spindles disagree at LSN %d", lsn)
		}
	}
	if dx.NextLSN() != 11 {
		t.Fatalf("NextLSN = %d", dx.NextLSN())
	}
}

func TestDuplexBothSpindlesFail(t *testing.T) {
	dx := NewDuplexLog(DefaultParams(), nil)
	lsn, _ := dx.Append([]byte("x"))
	dx.Primary.Fail()
	dx.Mirror.Fail()
	if _, err := dx.Append([]byte("y")); !errors.Is(err, ErrMediaFailure) {
		t.Fatalf("append with both spindles down: %v", err)
	}
	if _, err := dx.Read(lsn); !errors.Is(err, ErrMediaFailure) {
		t.Fatalf("read with both spindles down: %v", err)
	}
	// Repairing one spindle restores service (contents are gone with
	// the media — that is what the archive tape is for).
	dx.Primary.Repair()
	if _, err := dx.Append([]byte("z")); err != nil {
		t.Fatal(err)
	}
}

func TestDuplexMirrorOnlyFailure(t *testing.T) {
	dx := NewDuplexLog(DefaultParams(), nil)
	dx.Mirror.Fail()
	lsn, err := dx.Append([]byte("simplexed"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := dx.Read(lsn)
	if err != nil || string(got) != "simplexed" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestCheckpointDiskTrackIO(t *testing.T) {
	d := NewCheckpointDisk(4, DefaultParams(), &metrics.Counter{})
	if d.Tracks() != 4 {
		t.Fatalf("Tracks = %d", d.Tracks())
	}
	img := bytes.Repeat([]byte{7}, 1024)
	if err := d.WriteTrack(2, img); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadTrack(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("track contents mismatch")
	}
	if err := d.WriteTrack(4, img); !errors.Is(err, ErrNoSuchTrack) {
		t.Fatalf("out-of-range write: %v", err)
	}
	if err := d.WriteTrack(-1, img); !errors.Is(err, ErrNoSuchTrack) {
		t.Fatalf("negative track write: %v", err)
	}
	if _, err := d.ReadTrack(3); !errors.Is(err, ErrNoSuchTrack) {
		t.Fatalf("empty track read: %v", err)
	}
	d.FreeTrack(2)
	if _, err := d.ReadTrack(2); !errors.Is(err, ErrNoSuchTrack) {
		t.Fatalf("freed track read: %v", err)
	}
}

func TestCheckpointDiskFailure(t *testing.T) {
	d := NewCheckpointDisk(2, DefaultParams(), nil)
	if err := d.WriteTrack(0, []byte("img")); err != nil {
		t.Fatal(err)
	}
	d.Fail()
	if _, err := d.ReadTrack(0); !errors.Is(err, ErrMediaFailure) {
		t.Fatalf("read on failed disk: %v", err)
	}
	d.Repair()
	if _, err := d.ReadTrack(0); !errors.Is(err, ErrNoSuchTrack) {
		t.Fatalf("contents should be lost after media replacement: %v", err)
	}
}

func TestTimingCharges(t *testing.T) {
	m := &metrics.Counter{}
	p := DefaultParams()
	d := NewLogDisk(p, m)
	page := make([]byte, 8192)
	if _, err := d.Append(page); err != nil {
		t.Fatal(err)
	}
	before := m.Value()
	wantXfer := int64(8192) * 1e6 / p.BytesPerSec
	if before != wantXfer {
		t.Fatalf("append charged %d us, want transfer-only %d us (interleaved sectors)", before, wantXfer)
	}
	if _, err := d.Read(1); err != nil {
		t.Fatal(err)
	}
	got := m.Value() - before
	if got != p.AdjSeekMicros+wantXfer {
		t.Fatalf("read charged %d us, want %d", got, p.AdjSeekMicros+wantXfer)
	}

	ck := &metrics.Counter{}
	cd := NewCheckpointDisk(1, p, ck)
	img := make([]byte, 48<<10)
	if err := cd.WriteTrack(0, img); err != nil {
		t.Fatal(err)
	}
	wantTrack := p.AdjSeekMicros + int64(len(img))*1e6/(2*p.BytesPerSec)
	if ck.Value() != wantTrack {
		t.Fatalf("track write charged %d us, want %d (double-rate track transfer)", ck.Value(), wantTrack)
	}
}

// The disks outlive the registry that was counting them: after SetBusy
// the next generation's counter takes every charge, the old one none.
func TestSetBusyRepoints(t *testing.T) {
	old, next := &metrics.Counter{}, &metrics.Counter{}
	p := DefaultParams()
	dx := NewDuplexLog(p, old)
	cd := NewCheckpointDisk(1, p, old)
	page := make([]byte, 1024)
	if _, err := dx.Append(page); err != nil {
		t.Fatal(err)
	}
	perSpindle := int64(1024) * 1e6 / p.BytesPerSec
	if old.Value() != 2*perSpindle {
		t.Fatalf("duplexed append charged %d us, want %d (both spindles)", old.Value(), 2*perSpindle)
	}
	dx.SetBusy(next)
	cd.SetBusy(next)
	if _, err := dx.Append(page); err != nil {
		t.Fatal(err)
	}
	if err := cd.WriteTrack(0, page); err != nil {
		t.Fatal(err)
	}
	if old.Value() != 2*perSpindle {
		t.Fatalf("detached counter still charged: %d -> %d", 2*perSpindle, old.Value())
	}
	if want := 2*perSpindle + p.AdjSeekMicros + int64(1024)*1e6/(2*p.BytesPerSec); next.Value() != want {
		t.Fatalf("re-pointed counter = %d us, want %d", next.Value(), want)
	}
	cd.SetBusy(nil) // detached: charges nothing, must not panic
	if err := cd.WriteTrack(0, page); err != nil {
		t.Fatal(err)
	}
}

func TestBadSectorDuplexRepair(t *testing.T) {
	// §2.2: a damaged copy is masked by the mirror and rewritten.
	dx := NewDuplexLog(DefaultParams(), nil)
	lsn, err := dx.Append([]byte("page"))
	if err != nil {
		t.Fatal(err)
	}
	if !dx.Primary.CorruptPage(lsn) {
		t.Fatal("CorruptPage found no sector")
	}
	if _, err := dx.Primary.Read(lsn); !errors.Is(err, ErrBadSector) {
		t.Fatalf("corrupted sector read: %v, want ErrBadSector", err)
	}
	got, err := dx.Read(lsn)
	if err != nil || !bytes.Equal(got, []byte("page")) {
		t.Fatalf("duplex read = %q, %v", got, err)
	}
	// The fallback must have rewritten the primary copy.
	if p, err := dx.Primary.Read(lsn); err != nil || !bytes.Equal(p, []byte("page")) {
		t.Fatalf("primary not repaired: %q, %v", p, err)
	}
	data, bad, ok := dx.Primary.PageState(lsn)
	if !ok || bad || !bytes.Equal(data, []byte("page")) {
		t.Fatalf("PageState after repair = %q bad=%v ok=%v", data, bad, ok)
	}
}

func TestDuplexScrubRepairsMirror(t *testing.T) {
	// A page left simplexed (mirror copy missing or bad) reconverges on
	// the first successful primary read.
	dx := NewDuplexLog(DefaultParams(), nil)
	lsn, _ := dx.Append([]byte("abc"))
	dx.Mirror.CorruptPage(lsn)
	if _, err := dx.Read(lsn); err != nil {
		t.Fatal(err)
	}
	if m, err := dx.Mirror.Read(lsn); err != nil || !bytes.Equal(m, []byte("abc")) {
		t.Fatalf("mirror not scrubbed: %q, %v", m, err)
	}
}

func TestDuplexDisableFallback(t *testing.T) {
	dx := NewDuplexLog(DefaultParams(), nil)
	lsn, _ := dx.Append([]byte("x"))
	dx.Primary.CorruptPage(lsn)
	dx.SetDisableFallback(true)
	if _, err := dx.Read(lsn); !errors.Is(err, ErrBadSector) {
		t.Fatalf("read with fallback disabled: %v, want primary's ErrBadSector", err)
	}
	dx.SetDisableFallback(false)
	if _, err := dx.Read(lsn); err != nil {
		t.Fatalf("read with fallback restored: %v", err)
	}
}

func TestInjectedTornWriteLeavesBadSector(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Point: fault.PointLogWritePrimary, Hit: 2, Act: fault.ActCrashTorn, Torn: 3},
	}})
	d := NewLogDisk(DefaultParams(), nil)
	d.SetInjector(inj, fault.PointLogWritePrimary, fault.PointLogReadPrimary)
	if _, err := d.Append([]byte("whole-page")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append([]byte("torn-page")); !fault.IsCrash(err) {
		t.Fatalf("torn append: %v, want crash", err)
	}
	// The torn prefix is on the platter with a bad ECC.
	data, bad, ok := d.PageState(2)
	if !ok || !bad || !bytes.Equal(data, []byte("tor")) {
		t.Fatalf("torn sector state = %q bad=%v ok=%v", data, bad, ok)
	}
	inj.ClearCrash()
	if _, err := d.Read(2); !errors.Is(err, ErrBadSector) {
		t.Fatalf("torn sector read: %v, want ErrBadSector", err)
	}
	// All I/O fails while crashed.
	inj.ForceCrash()
	if _, err := d.Read(1); !fault.IsCrash(err) {
		t.Fatalf("read on crashed machine: %v", err)
	}
	if _, err := d.Append([]byte("z")); !fault.IsCrash(err) {
		t.Fatalf("append on crashed machine: %v", err)
	}
}

func TestInjectedCkptTornTrack(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Point: fault.PointCkptWrite, Hit: 1, Act: fault.ActCrashTorn, Torn: 2},
	}})
	d := NewCheckpointDisk(4, DefaultParams(), nil)
	d.SetInjector(inj)
	if err := d.WriteTrack(0, []byte("image")); !fault.IsCrash(err) {
		t.Fatalf("torn track write: %v, want crash", err)
	}
	inj.ClearCrash()
	if _, err := d.ReadTrack(0); !errors.Is(err, ErrBadSector) {
		t.Fatalf("torn track read: %v, want ErrBadSector", err)
	}
	// A fresh write over the torn track restores it.
	if err := d.WriteTrack(0, []byte("image")); err != nil {
		t.Fatal(err)
	}
	if got, err := d.ReadTrack(0); err != nil || !bytes.Equal(got, []byte("image")) {
		t.Fatalf("rewritten track = %q, %v", got, err)
	}
}

func TestDuplexSimplexedWriteThenCrashAfter(t *testing.T) {
	// crash-after on the primary leaves the page durable on the primary
	// only; the caller sees the crash, and a later read re-duplexes it.
	inj := fault.NewInjector(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Point: fault.PointLogWritePrimary, Hit: 1, Act: fault.ActCrashAfter},
	}})
	dx := NewDuplexLog(DefaultParams(), nil)
	dx.Primary.SetInjector(inj, fault.PointLogWritePrimary, fault.PointLogReadPrimary)
	dx.Mirror.SetInjector(inj, fault.PointLogWriteMirror, fault.PointLogReadMirror)
	if _, err := dx.Append([]byte("p")); !fault.IsCrash(err) {
		t.Fatalf("append: %v, want crash", err)
	}
	if _, bad, ok := dx.Primary.PageState(1); !ok || bad {
		t.Fatalf("primary copy should be durable: bad=%v ok=%v", bad, ok)
	}
	if _, _, ok := dx.Mirror.PageState(1); ok {
		t.Fatal("mirror copy should be absent (machine halted before mirroring)")
	}
	inj.Reset()
	if _, err := dx.Read(1); err != nil {
		t.Fatal(err)
	}
	if m, err := dx.Mirror.Read(1); err != nil || !bytes.Equal(m, []byte("p")) {
		t.Fatalf("mirror not re-duplexed: %q, %v", m, err)
	}
}

// TestReadTrackSplitEqualsReadTrack holds the split read to the whole
// read: each case runs the same injector plan on two fresh disks, one
// read each way, and the two must agree on the bytes (head‖tail), the
// error and the busy charge.
func TestReadTrackSplitEqualsReadTrack(t *testing.T) {
	const size, tailLen = 48<<10 + 4, 4
	img := make([]byte, size)
	for i := range img {
		img[i] = byte(i * 7)
	}
	read := func(act fault.Act, torn int) fault.Plan {
		return fault.Plan{Seed: 7, Rules: []fault.Rule{{Point: fault.PointCkptRead, Hit: 1, Act: act, Torn: torn}}}
	}
	cases := []struct {
		name    string
		plan    fault.Plan
		loc     TrackLoc // the track read; the image is written to track 0
		fail    bool     // the medium fails before the read
		rot     bool     // the read returns damaged bytes
		wantErr error
	}{
		{name: "clean"},
		{name: "flip", rot: true, plan: read(fault.ActMutFlip, -1)},
		{name: "zero", rot: true, plan: read(fault.ActMutZero, -1)},
		{name: "trunc", rot: true, plan: read(fault.ActMutTrunc, -1)},
		{name: "trunc-into-tail", rot: true, plan: read(fault.ActMutTrunc, 2)},
		{name: "markbad", plan: read(fault.ActCorrupt, 0), wantErr: ErrBadSector},
		{name: "missing", loc: 1, wantErr: ErrNoSuchTrack},
		{name: "failed", fail: true, wantErr: ErrMediaFailure},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			disk := func() (*CheckpointDisk, *metrics.Counter) {
				busy := &metrics.Counter{}
				d := NewCheckpointDisk(4, DefaultParams(), nil)
				if err := d.WriteTrack(0, img); err != nil {
					t.Fatal(err)
				}
				d.SetBusy(busy)
				d.SetInjector(fault.NewInjector(c.plan))
				if c.fail {
					d.Fail()
				}
				return d, busy
			}
			whole, wholeBusy := disk()
			split, splitBusy := disk()
			want, werr := whole.ReadTrack(c.loc)
			head, tail, serr := split.ReadTrackSplit(c.loc, tailLen)
			if !errors.Is(werr, c.wantErr) || !errors.Is(serr, c.wantErr) || (werr == nil) != (serr == nil) {
				t.Fatalf("errors: ReadTrack %v, ReadTrackSplit %v, want %v", werr, serr, c.wantErr)
			}
			if werr != nil && werr.Error() != serr.Error() {
				t.Fatalf("errors differ: ReadTrack %q, ReadTrackSplit %q", werr, serr)
			}
			if got := append(append([]byte(nil), head...), tail...); !bytes.Equal(got, want) {
				t.Fatalf("head‖tail is %d bytes, ReadTrack %d, or they differ", len(got), len(want))
			}
			if werr == nil && c.rot == bytes.Equal(want, img) {
				t.Fatalf("read returned the stored image unchanged: %v, want %v", !c.rot, c.rot)
			}
			if wholeBusy.Value() != splitBusy.Value() {
				t.Fatalf("busy charge: ReadTrack %d µs, ReadTrackSplit %d µs", wholeBusy.Value(), splitBusy.Value())
			}
			if len(want) >= tailLen && len(tail) != tailLen {
				t.Fatalf("tail of a %d-byte track is %d bytes, want %d", len(want), len(tail), tailLen)
			}
			if c.name == "clean" && (len(head) != 48<<10 || cap(head) != len(head)) {
				t.Fatalf("head len %d cap %d, want both %d", len(head), cap(head), 48<<10)
			}
		})
	}
}

// TestTrackBytesNeverChange holds the checkpoint disk to its
// immutability invariant: a clean read is a view of the very buffer the
// writer handed over, a read mutation returns a damaged private copy and
// the next clean read of the track returns the original bytes, and a
// write mutation stores a damaged copy that the write-verify compare
// sees, leaving the caller's buffer as it was.
func TestTrackBytesNeverChange(t *testing.T) {
	img := make([]byte, 48<<10+4)
	for i := range img {
		img[i] = byte(i * 7)
	}
	want := bytes.Clone(img)
	d := NewCheckpointDisk(4, DefaultParams(), nil)
	d.SetInjector(fault.NewInjector(fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Point: fault.PointCkptRead, Hit: 1, Act: fault.ActMutFlip},
		{Point: fault.PointCkptWrite, Hit: 2, Act: fault.ActMutFlip},
	}}))
	if err := d.WriteTrack(0, img); err != nil {
		t.Fatal(err)
	}
	head, tail, err := d.ReadTrackSplit(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := append(bytes.Clone(head), tail...); bytes.Equal(got, want) || &head[0] == &img[0] {
		t.Fatal("a mutated read did not return a damaged private copy")
	}
	head, tail, err = d.ReadTrackSplit(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := append(bytes.Clone(head), tail...); !bytes.Equal(got, want) || !bytes.Equal(img, want) {
		t.Fatal("a read mutation changed the stored track")
	}
	if &head[0] != &img[0] || cap(head) != len(head) {
		t.Fatal("a clean read is not a capped view of the written buffer")
	}

	other := bytes.Clone(want)
	if err := d.WriteTrack(1, other); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(other, want) {
		t.Fatal("a write mutation damaged the caller's buffer")
	}
	if equal, bad, ok := d.TrackEqual(1, other); !ok || bad || equal {
		t.Fatalf("write-verify of a mutated write: equal %v, bad %v, ok %v; want false, false, true", equal, bad, ok)
	}
}

// TestSharedPagesUnderConcurrentUse reads pages through the duplexed
// pair from several goroutines while another appends them, damages
// each mirror copy for a read to repair from the primary's buffer, and
// rolls the window forward. Every page is one buffer that both spindles
// and every reader share; run it under -race.
func TestSharedPagesUnderConcurrentUse(t *testing.T) {
	d := NewDuplexLog(DefaultParams(), &metrics.Counter{})
	const n, size = 400, 512
	var last atomic.Int64 // the highest LSN appended
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			lsn, err := d.Append(testPage(size, byte(i)))
			if err != nil {
				t.Error(err)
				return
			}
			last.Store(int64(lsn))
			d.Mirror.CorruptPage(lsn)
			if lsn > 32 {
				d.Drop(lsn - 32)
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				lsn := LSN(last.Load())
				if lsn == NilLSN {
					continue
				}
				p, err := d.ReadChecked(lsn, readCheckAny)
				if errors.Is(err, ErrNoSuchPage) {
					continue // rolled off meanwhile
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(p, testPage(size, byte(lsn))) {
					t.Errorf("LSN %d read back changed", lsn)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// readCheckAny is a content check that accepts every page, declared at
// package level so that passing it allocates no closure.
func readCheckAny([]byte) error { return nil }

// TestDuplexReadAllocatesNothing: a clean duplexed read returns the
// stored page and its mirror scrub inspects the mirror's copy in place,
// so neither copies the page.
func TestDuplexReadAllocatesNothing(t *testing.T) {
	d := NewDuplexLog(DefaultParams(), &metrics.Counter{})
	// An armed injector whose rule never fires, as under a fault plan.
	inj := fault.NewInjector(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Point: fault.PointLogWritePrimary, Hit: 1 << 30, Act: fault.ActIOErr},
	}})
	d.Primary.SetInjector(inj, fault.PointLogWritePrimary, fault.PointLogReadPrimary)
	d.Mirror.SetInjector(inj, fault.PointLogWriteMirror, fault.PointLogReadMirror)
	lsn, err := d.Append(testPage(8<<10, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := d.ReadChecked(lsn, readCheckAny); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a clean ReadChecked allocates %.1f times, want 0", n)
	}
}

// BenchmarkDuplexAppend appends one 8 KiB page to a duplexed pair,
// keeping a 256-page window resident as rollover would.
func BenchmarkDuplexAppend(b *testing.B) {
	d := NewDuplexLog(DefaultParams(), &metrics.Counter{})
	page := testPage(8<<10, 0)
	b.ReportAllocs()
	b.SetBytes(int64(len(page)))
	for i := 0; i < b.N; i++ {
		lsn, err := d.Append(page)
		if err != nil {
			b.Fatal(err)
		}
		if lsn%256 == 0 {
			d.Drop(lsn - 256)
		}
	}
}

// BenchmarkDuplexReadChecked reads a resident 8 KiB page through the
// duplexed pair, mirror scrub included.
func BenchmarkDuplexReadChecked(b *testing.B) {
	d := NewDuplexLog(DefaultParams(), &metrics.Counter{})
	page := testPage(8<<10, 0)
	var lsns []LSN
	for i := 0; i < 64; i++ {
		lsn, err := d.Append(page)
		if err != nil {
			b.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ReadChecked(lsns[i%len(lsns)], readCheckAny); err != nil {
			b.Fatal(err)
		}
	}
}
