// Package simdisk simulates the disk hardware of the paper's recovery
// architecture (§2.2, §3.1): a set of duplexed log disks managed by the
// recovery CPU and a set of checkpoint disks managed by both CPUs. (The
// archive that log disks are rolled onto is package archive.)
//
// The paper's timing model is reproduced: the drives are two-head-per-
// surface high-performance disks with relatively low seek times; log
// disk sectors are interleaved so that logically adjacent pages are
// physically one sector apart, giving the disk a full sector time to set
// up between back-to-back page writes; partitions are written in whole
// tracks, and a track transfers at double the per-page rate. Contents
// are kept in memory (they survive the simulated crash), and service
// times are charged to a busy-time counter instead of sleeping.
//
// The failure model is reproduced too. Each stored sector/track carries
// an ECC-valid bit; a write torn by a crash (or silently corrupted by an
// injected fault) leaves the sector present but unreadable, returning
// ErrBadSector on access — which is exactly the condition the duplexed
// pair of §2.2 exists to mask. Fault points are evaluated through an
// optional fault.Injector; a nil injector costs one branch per I/O.
package simdisk

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mmdb/internal/fault"
	"mmdb/internal/metrics"
)

// LSN is a log sequence number: the address of one page on the log
// disk. LSNs increase monotonically as pages are appended; the paper's
// "log window" is an LSN interval maintained by the recovery manager.
type LSN int64

// NilLSN marks "no page". Valid LSNs start at 1.
const NilLSN LSN = 0

// Errors returned by disk operations.
var (
	ErrNoSuchPage   = errors.New("simdisk: no such log page")
	ErrNoSuchTrack  = errors.New("simdisk: no such checkpoint track")
	ErrMediaFailure = errors.New("simdisk: media failure")
	// ErrBadSector means the sector/track exists but fails its ECC
	// check: a torn or corrupted write. The duplexed pair masks it by
	// reading the mirror copy and rewriting the damaged one.
	ErrBadSector = errors.New("simdisk: bad sector (ECC check failed)")
)

// Params models drive timing. Values are estimates for a late-1980s
// two-head-per-surface high-performance drive; the paper does not pin
// exact figures, and absolute numbers only scale the experiments — the
// reproduced shape does not depend on them.
type Params struct {
	AvgSeekMicros int64 // random seek, e.g. a partition read during recovery
	AdjSeekMicros int64 // short seek between a partition's sibling log pages
	RotateMicros  int64 // half-rotation latency charged on random access
	BytesPerSec   int64 // sustained per-page transfer rate
}

// DefaultParams returns the drive model used throughout the experiments.
func DefaultParams() Params {
	return Params{
		AvgSeekMicros: 8000,    // two heads per surface => low seeks
		AdjSeekMicros: 2000,    // sibling log pages are relatively close
		RotateMicros:  8300,    // half of a 16.7ms (3600 rpm) rotation
		BytesPerSec:   2 << 20, // 2 MB/s page transfer
	}
}

func (p Params) transferMicros(n int) int64 {
	return int64(n) * 1e6 / p.BytesPerSec
}

// trackTransferMicros charges whole-track writes at double the per-page
// rate, per §3.1.
func (p Params) trackTransferMicros(n int) int64 {
	return int64(n) * 1e6 / (2 * p.BytesPerSec)
}

// logPage is one stored sector: its contents (possibly a torn prefix)
// plus the ECC-valid bit. bad is this sector's own, even where data is
// shared with the other spindle or the archive.
type logPage struct {
	data []byte
	bad  bool
}

// LogDisk is one append-only log disk. Pages are written individually;
// because sectors are interleaved, sequential page appends pay only the
// transfer time (the inter-sector gap covers setup), while reads during
// recovery pay a short seek per page.
//
// A stored page's bytes never change, as a CheckpointDisk track's do
// not: Append and WriteAt keep the buffer they are handed (a torn write
// keeps a capped prefix of it), Drop and Fail only drop the reference,
// and a write or read mutation damages a private copy. So Read and
// PageState return the stored bytes, not copies, and one buffer can be
// the page on both spindles and on the archive. Neither the writer nor
// any reader may write through such a buffer.
type LogDisk struct {
	params Params

	mu     sync.Mutex
	busy   *metrics.Counter // simulated busy time, µs; nil-safe
	inj    *fault.Injector
	wpt    fault.Point // fault point charged per page write
	rpt    fault.Point // fault point charged per page read
	pages  map[LSN]*logPage
	next   LSN
	low    LSN // no page is stored below it, so Drop starts there
	failed bool
}

// NewLogDisk creates an empty log disk charging its simulated busy
// microseconds to busy, which may be nil.
func NewLogDisk(params Params, busy *metrics.Counter) *LogDisk {
	return &LogDisk{params: params, busy: busy, pages: make(map[LSN]*logPage), next: 1, low: 1}
}

// SetBusy points the busy-time charges at c (nil detaches): the disk
// outlives the registry of the instance that was using it.
func (d *LogDisk) SetBusy(c *metrics.Counter) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.busy = c
}

// SetInjector attaches a fault injector with this spindle's write and
// read fault points. A nil injector detaches.
func (d *LogDisk) SetInjector(inj *fault.Injector, write, read fault.Point) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inj, d.wpt, d.rpt = inj, write, read
}

// writePageLocked stores page at lsn after consulting the injector: a
// crash-before or transient error applies nothing; a torn write stores
// a prefix and flips the ECC bit; a corrupt write stores everything but
// still flips the ECC bit; a mutation act silently stores damaged bytes
// with the ECC bit *intact* — only a content check (wal page checksum)
// can catch it. The sector keeps page itself, capped at what landed.
func (d *LogDisk) writePageLocked(lsn LSN, page []byte) error {
	dec := d.inj.Check(d.wpt, len(page))
	if dec.Err != nil && dec.ApplyBytes(len(page)) == 0 && !dec.MarkBad {
		return dec.Err
	}
	n := dec.ApplyBytes(len(page))
	stored := page[:n:n]
	if dec.Mutated() {
		stored = dec.MutateBytes(stored)
	}
	d.pages[lsn] = &logPage{data: stored, bad: dec.MarkBad}
	if lsn >= d.next {
		d.next = lsn + 1
	}
	if lsn < d.low {
		d.low = lsn
	}
	d.busy.Add(d.params.transferMicros(len(stored)))
	return dec.Err
}

// Append writes a page at the next LSN and returns that LSN. The disk
// keeps page: the caller must not write to it again.
func (d *LogDisk) Append(page []byte) (LSN, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return NilLSN, ErrMediaFailure
	}
	lsn := d.next
	if err := d.writePageLocked(lsn, page); err != nil {
		return NilLSN, err
	}
	return lsn, nil
}

// WriteAt overwrites the page at a specific LSN; used by the duplex pair
// to keep both spindles on one LSN sequence, and to rewrite a damaged
// sector from the healthy copy. The disk keeps page, as Append does.
func (d *LogDisk) WriteAt(lsn LSN, page []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrMediaFailure
	}
	return d.writePageLocked(lsn, page)
}

// Read returns the page at lsn, charging a sibling-page seek plus
// transfer. A sector whose ECC bit is bad fails with ErrBadSector; an
// injected read fault can also damage the sector in place (latent
// corruption discovered on access). The result is the stored page,
// read-only; a read mutation instead returns a damaged private copy and
// leaves the stored bytes as they were.
func (d *LogDisk) Read(lsn LSN) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return nil, ErrMediaFailure
	}
	dec := d.inj.Check(d.rpt, 0)
	if dec.Err != nil {
		return nil, dec.Err
	}
	p, ok := d.pages[lsn]
	if !ok {
		return nil, fmt.Errorf("%w: LSN %d", ErrNoSuchPage, lsn)
	}
	if dec.MarkBad {
		p.bad = true
	}
	if p.bad {
		return nil, fmt.Errorf("%w: LSN %d", ErrBadSector, lsn)
	}
	d.busy.Add(d.params.AdjSeekMicros + d.params.transferMicros(len(p.data)))
	if dec.Mutated() {
		// Transient read rot: the head returns damaged bytes with ECC
		// reporting clean. The stored copy is untouched.
		return dec.MutateBytes(p.data), nil
	}
	return p.data, nil
}

// PageState inspects the sector at lsn without charging cost or fault
// points: the stored bytes (torn prefix included), the ECC-bad flag,
// and whether the sector holds anything at all. data is the stored
// page, read-only. Verification-only.
func (d *LogDisk) PageState(lsn LSN) (data []byte, bad bool, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pages[lsn]
	if !ok {
		return nil, false, false
	}
	return p.data, p.bad, true
}

// CorruptPage flips the ECC bit of the sector at lsn, reporting whether
// the sector existed. Test helper for §2.2 repair coverage.
func (d *LogDisk) CorruptPage(lsn LSN) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pages[lsn]
	if ok {
		p.bad = true
	}
	return ok
}

// LSNs returns the resident page addresses in ascending order.
func (d *LogDisk) LSNs() []LSN {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]LSN, 0, len(d.pages))
	for l := range d.pages {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Drop releases pages up to and including lsn (after they have been
// rolled to the archive), bounding the disk's footprint to the window.
// It deletes from the low-water mark up, so a roll-over costs the pages
// it drops, not every page the disk holds.
func (d *LogDisk) Drop(upTo LSN) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for ; d.low <= upTo; d.low++ {
		delete(d.pages, d.low)
	}
}

// NextLSN returns the LSN the next Append will use.
func (d *LogDisk) NextLSN() LSN {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.next
}

// PageCount returns the number of resident pages.
func (d *LogDisk) PageCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// Fail marks the disk as suffering a media failure; subsequent I/O
// returns ErrMediaFailure until Repair.
func (d *LogDisk) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = true
	d.pages = make(map[LSN]*logPage)
}

// Repair replaces the failed medium with a blank one.
func (d *LogDisk) Repair() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = false
}

// DuplexLog is the duplexed pair of log disks (§2.2: "the other set of
// (duplexed) disks holds log information"). Writes go to both spindles
// in lockstep at one LSN sequence; reads are served by the primary with
// fallback to the mirror, and a copy found damaged or missing is
// rewritten from the healthy one so the pair reconverges.
//
// Its pages are a LogDisk's, immutable once written: Append stores the
// one buffer it is handed on both spindles, a repair stores the healthy
// copy's buffer on the damaged spindle, and Read and ReadChecked return
// the stored bytes. Nothing writes through a buffer handed to Append or
// returned by a read; the ECC-bad flag stays per spindle.
type DuplexLog struct {
	Primary *LogDisk
	Mirror  *LogDisk

	// Fallbacks counts reads served by the mirror after a primary
	// error; Repairs counts damaged/missing copies rewritten from the
	// healthy spindle. Optional, nil-safe.
	Fallbacks *metrics.Counter
	Repairs   *metrics.Counter

	mu              sync.Mutex // serialises LSN allocation across the pair
	disableFallback atomic.Bool
}

// NewDuplexLog creates a duplexed pair sharing timing and the
// busy-time counter.
func NewDuplexLog(params Params, busy *metrics.Counter) *DuplexLog {
	return &DuplexLog{
		Primary: NewLogDisk(params, busy),
		Mirror:  NewLogDisk(params, busy),
	}
}

// SetBusy points both spindles' busy-time charges at c.
func (d *DuplexLog) SetBusy(c *metrics.Counter) {
	d.Primary.SetBusy(c)
	d.Mirror.SetBusy(c)
}

// SetDisableFallback turns mirror fallback off (true) or on (false).
// Only the crashhunt negative mode uses it, to demonstrate that the
// sweep catches a recovery path that ignores §2.2.
func (d *DuplexLog) SetDisableFallback(v bool) { d.disableFallback.Store(v) }

// Append writes the page to both spindles at one LSN and returns it.
// The pair fails only if both spindles fail — a single-spindle error
// leaves the page simplexed, to be re-duplexed by a later read's scrub
// — except that a machine crash always surfaces, whatever landed.
func (d *DuplexLog) Append(page []byte) (LSN, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	lsn := d.Primary.NextLSN()
	if m := d.Mirror.NextLSN(); m > lsn {
		lsn = m
	}
	perr := d.Primary.WriteAt(lsn, page)
	merr := d.Mirror.WriteAt(lsn, page)
	if fault.IsCrash(perr) {
		return NilLSN, perr
	}
	if fault.IsCrash(merr) {
		return NilLSN, merr
	}
	if perr != nil && merr != nil {
		return NilLSN, perr
	}
	return lsn, nil
}

// Read returns the page at lsn: ReadChecked with a check that accepts
// every copy the device reads cleanly.
func (d *DuplexLog) Read(lsn LSN) ([]byte, error) {
	return d.ReadChecked(lsn, func([]byte) error { return nil })
}

// ReadChecked returns the page at lsn from the primary, falling back to
// the mirror (§2.2) when the primary read fails or its copy fails check,
// a caller-supplied content check layered on top of the device ECC. The
// simulated drives detect torn and marked-bad sectors themselves, but
// bit rot inside an ECC-valid sector is invisible to the device — only
// the reader's format knowledge (a wal page checksum, a record CRC) can
// catch it. The mirror copy is checked too, and a good one rewrites the
// primary so the pair reconverges; after a good primary read the mirror
// is scrubbed the same way, so a page left simplexed by a write-time
// fault reconverges on first use. If both copies fail the check, the caller's typed
// error for the primary copy is returned — never silently-damaged
// bytes.
func (d *DuplexLog) ReadChecked(lsn LSN, check func([]byte) error) ([]byte, error) {
	p, perr := d.Primary.Read(lsn)
	var cerr error
	if perr == nil {
		if cerr = check(p); cerr == nil {
			d.repairIfDamaged(d.Mirror, lsn, p)
			return p, nil
		}
	}
	fallbackErr := perr
	if fallbackErr == nil {
		fallbackErr = cerr
	}
	if fault.IsCrash(perr) || d.disableFallback.Load() {
		return nil, fallbackErr
	}
	m, merr := d.Mirror.Read(lsn)
	if merr != nil {
		if fault.IsCrash(merr) {
			return nil, merr
		}
		return nil, fallbackErr
	}
	if check(m) != nil {
		return nil, fallbackErr
	}
	d.Fallbacks.Inc()
	// The primary copy is missing, bad, or ECC-valid rot: rewrite it
	// from the verified mirror copy.
	if d.Primary.WriteAt(lsn, m) == nil {
		d.Repairs.Inc()
	}
	return m, nil
}

// repairIfDamaged rewrites other's copy of lsn from good if it is
// missing or fails its ECC check.
func (d *DuplexLog) repairIfDamaged(other *LogDisk, lsn LSN, good []byte) {
	if _, bad, ok := other.PageState(lsn); ok && !bad {
		return
	}
	if other.WriteAt(lsn, good) == nil {
		d.Repairs.Inc()
	}
}

// Drop releases archived pages on both spindles.
func (d *DuplexLog) Drop(upTo LSN) {
	d.Primary.Drop(upTo)
	d.Mirror.Drop(upTo)
}

// NextLSN returns the next LSN the pair will assign.
func (d *DuplexLog) NextLSN() LSN {
	n := d.Primary.NextLSN()
	if m := d.Mirror.NextLSN(); m > n {
		n = m
	}
	return n
}

// ckptTrack is one stored checkpoint track plus its ECC-valid bit.
type ckptTrack struct {
	data []byte
	bad  bool
}

// TrackLoc addresses one track on the checkpoint disk set.
type TrackLoc int32

// NilTrack marks "no checkpoint image". Valid locations start at 0.
const NilTrack TrackLoc = -1

// CheckpointDisk is the disk set holding partition checkpoint images,
// organised by the recovery design as a pseudo-circular queue of tracks
// (§2.4). The disk itself only stores and times track I/O; allocation
// policy lives in the checkpoint manager.
//
// A stored track's bytes never change: WriteTrack keeps the buffer it is
// handed, FreeTrack and Fail only drop the reference, and a mutation
// fault damages a copy. So a read returns views of the stored bytes, not
// copies, and neither the writer nor any reader may write through them.
type CheckpointDisk struct {
	params Params

	mu     sync.Mutex
	busy   *metrics.Counter // simulated busy time, µs; nil-safe
	inj    *fault.Injector
	tracks map[TrackLoc]*ckptTrack
	n      int // capacity in tracks
	failed bool
}

// NewCheckpointDisk creates a checkpoint disk set with n tracks,
// charging its simulated busy microseconds to busy, which may be nil.
func NewCheckpointDisk(n int, params Params, busy *metrics.Counter) *CheckpointDisk {
	return &CheckpointDisk{params: params, busy: busy, tracks: make(map[TrackLoc]*ckptTrack), n: n}
}

// SetBusy points the busy-time charges at c (nil detaches).
func (d *CheckpointDisk) SetBusy(c *metrics.Counter) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.busy = c
}

// SetInjector attaches a fault injector; track I/O hits the ckpt.write
// and ckpt.read fault points. A nil injector detaches.
func (d *CheckpointDisk) SetInjector(inj *fault.Injector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inj = inj
}

// Tracks returns the capacity in tracks.
func (d *CheckpointDisk) Tracks() int { return d.n }

// WriteTrack stores a whole-track partition image. Writes land at the
// head of the pseudo-circular queue, so they pay a short seek plus the
// double-rate track transfer. The caller hands data over: the track
// keeps it (or, after a torn write, a prefix of it) and the caller must
// not write to it again.
func (d *CheckpointDisk) WriteTrack(loc TrackLoc, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrMediaFailure
	}
	if loc < 0 || int(loc) >= d.n {
		return fmt.Errorf("%w: track %d of %d", ErrNoSuchTrack, loc, d.n)
	}
	dec := d.inj.Check(fault.PointCkptWrite, len(data))
	if dec.Err != nil && dec.ApplyBytes(len(data)) == 0 && !dec.MarkBad {
		return dec.Err
	}
	n := dec.ApplyBytes(len(data))
	stored := data[:n:n]
	if dec.Mutated() {
		// Silent image rot: the track keeps valid ECC. The checkpoint
		// manager's write-verify pass is what catches this.
		stored = dec.MutateBytes(stored)
	}
	d.tracks[loc] = &ckptTrack{data: stored, bad: dec.MarkBad}
	d.busy.Add(d.params.AdjSeekMicros + d.params.trackTransferMicros(len(stored)))
	return dec.Err
}

// ReadTrack fetches a partition image during recovery: a random seek
// plus rotation plus the double-rate track transfer. A torn or
// corrupted track fails with ErrBadSector. The result is read-only.
func (d *CheckpointDisk) ReadTrack(loc TrackLoc) ([]byte, error) {
	data, _, err := d.ReadTrackSplit(loc, 0) // an empty tail: all of it is head
	return data, err
}

// ReadTrackSplit is ReadTrack with the track split at its last tailLen
// bytes: head is everything before them (for a checkpoint image, the
// buffer the partition adopts) and tail is those bytes (the envelope
// trailer). Both are read-only views of the stored track, head capped
// at its length; a read mutation instead returns a private damaged
// copy of the whole track, split the same way, and leaves the stored
// bytes as they were. Fault points, errors and the busy charge are
// ReadTrack's, and head‖tail is always what ReadTrack returns. A track
// shorter than tailLen comes back whole in tail.
func (d *CheckpointDisk) ReadTrackSplit(loc TrackLoc, tailLen int) (head, tail []byte, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return nil, nil, ErrMediaFailure
	}
	dec := d.inj.Check(fault.PointCkptRead, 0)
	if dec.Err != nil {
		return nil, nil, dec.Err
	}
	t, ok := d.tracks[loc]
	if !ok {
		return nil, nil, fmt.Errorf("%w: track %d", ErrNoSuchTrack, loc)
	}
	if dec.MarkBad {
		t.bad = true
	}
	if t.bad {
		return nil, nil, fmt.Errorf("%w: track %d", ErrBadSector, loc)
	}
	d.busy.Add(d.params.AvgSeekMicros + d.params.RotateMicros + d.params.trackTransferMicros(len(t.data)))
	data := t.data
	if dec.Mutated() {
		// Transient read rot with clean ECC, in a private copy: the
		// stored track stays intact. Image validation in the partition
		// loader is the detector.
		data = dec.MutateBytes(data)
	}
	cut := max(len(data)-tailLen, 0)
	return data[:cut:cut], data[cut:], nil
}

// TrackEqual compares the stored bytes of the track at loc with want
// without copying them or charging cost or fault points, and reports
// the track's ECC-bad flag and whether it holds anything at all: the
// checkpoint manager's write-verify pass, so a silently mutated image
// write is caught while the previous image still exists.
// (Deliberately uninstrumented — a verify read through the ckpt.read
// fault point would shift recovery-time hit counts and break plan
// reproducibility, like stablemem.Region.)
func (d *CheckpointDisk) TrackEqual(loc TrackLoc, want []byte) (equal, bad, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tracks[loc]
	if !ok {
		return false, false, false
	}
	return bytes.Equal(t.data, want), t.bad, true
}

// FreeTrack discards the image at loc (its partition has a newer copy).
func (d *CheckpointDisk) FreeTrack(loc TrackLoc) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.tracks, loc)
}

// Fail simulates a media failure: contents are lost and I/O errors
// until Repair.
func (d *CheckpointDisk) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = true
	d.tracks = make(map[TrackLoc]*ckptTrack)
}

// Repair installs a blank medium.
func (d *CheckpointDisk) Repair() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = false
}
