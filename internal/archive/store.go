// Package archive is the append-only archive tier (§2.6), and only the
// storage half of it: log pages rolled off the log disks are appended to
// checksummed segments under their partition address and LSN, and read
// back one partition at a time through each segment's page directory
// (ScanPartition). Together with the still-resident log pages that is
// every partition's complete REDO history, so losing a checkpoint image,
// or the whole checkpoint disk set, never loses committed data.
// Replaying the history into a partition is recovery, and lives with the
// rest of it in internal/core (restorePartition).
package archive

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"mmdb/internal/addr"
	"mmdb/internal/fault"
	"mmdb/internal/simdisk"
)

// Store is the append-only archive tier (§2.6): the tape that filled log
// disks are rolled onto. Like the log and checkpoint disks it is a
// simulated device in process memory, carried across DB.Crash/Recover
// with the rest of the Hardware. It holds immutable, checksummed,
// fixed-frame, time-ordered segments, each with a page directory sorted
// by (PID, LSN), so one partition's history is located by binary search
// instead of a full replay.
type Store struct {
	mu       sync.Mutex
	segBytes int64
	segs     []*segment
	inj      *fault.Injector
	onSeal   func()
	entries  int // archived pages
}

// segment is one byte buffer of frames. Its own lock guards b:
// ScanPartition reads frames outside the store lock, and a decayed read
// damages a frame in place.
type segment struct {
	mu     sync.Mutex
	b      []byte
	size   int64      // clean frame-aligned logical size; under Store.mu
	sealed bool       // rotated away from: no more appends
	index  []indexRec // page directory; sorted by (PID, LSN) once sealed
}

// indexRec locates one archived log page inside a segment.
type indexRec struct {
	pid addr.PartitionID
	lsn simdisk.LSN
	off int64
}

func pidLess(a, b addr.PartitionID) bool {
	if a.Segment != b.Segment {
		return a.Segment < b.Segment
	}
	return a.Part < b.Part
}

func recLess(a, b indexRec) bool {
	if a.pid != b.pid {
		return pidLess(a.pid, b.pid)
	}
	return a.lsn < b.lsn
}

// DefaultSegmentBytes is the segment rotation threshold used when the
// caller passes 0.
const DefaultSegmentBytes = 1 << 20

// Open creates an empty archive store. The archive lives in memory, so
// dir must be empty; the parameter remains for existing callers.
func Open(dir string, segBytes int) (*Store, error) {
	if dir != "" {
		return nil, errors.New("archive: the store is in memory and takes no directory")
	}
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	return &Store{segBytes: int64(segBytes)}, nil
}

// SetInjector attaches the fault injector; appends hit arch.append and
// scans/rebuild reads hit arch.read.
func (s *Store) SetInjector(inj *fault.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inj = inj
}

// SetOnSeal registers a callback invoked, under the store lock (keep it
// cheap), each time a segment is sealed.
func (s *Store) SetOnSeal(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onSeal = fn
}

// AppendPage archives one rolled log page under its partition identity
// and log-disk LSN.
func (s *Store) AppendPage(pid addr.PartitionID, lsn simdisk.LSN, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg := s.activeLocked()
	dec := fault.Decision{Apply: -1}
	if s.inj != nil {
		dec = s.inj.Check(fault.PointArchAppend, len(data))
	}
	if dec.Err != nil && dec.ApplyBytes(len(data)) == 0 && !dec.MarkBad {
		return dec.Err // nothing reached the medium
	}
	if dec.Mutated() {
		// Rot the entry data before framing: the frame checksums are
		// computed over the damaged bytes, modelling rot under valid
		// ECC. The wal page's own CRC (or the reader's entry parse)
		// catches it at rebuild time.
		data = dec.MutateBytes(data)
	}
	frames := encodeEntry(EntryLogPage, pid, lsn, data)
	apply := dec.ApplyBytes(len(frames))
	seg.writeAt(frames[:apply], seg.size)
	if apply < len(frames) || dec.Err != nil {
		// Torn or failed append: the logical size is not advanced, so
		// no reader looks at the partial frames, the next append
		// overwrites them, and the caller retries the whole entry.
		if dec.Err != nil {
			return dec.Err
		}
		return fault.ErrInjected
	}
	if dec.MarkBad {
		// ActCorrupt: the append "succeeds" while the medium decays —
		// damage the first frame's checksum in place so a later read
		// detects and skips the entry.
		seg.decay(seg.size)
	}
	seg.index = append(seg.index, indexRec{pid: pid, lsn: lsn, off: seg.size})
	seg.size += int64(len(frames))
	s.entries++
	if seg.size >= s.segBytes {
		s.sealLocked(seg)
	}
	return nil
}

// activeLocked returns the segment open for appends, starting the next
// one if the store is empty or the last segment is sealed.
func (s *Store) activeLocked() *segment {
	if n := len(s.segs); n > 0 && !s.segs[n-1].sealed {
		return s.segs[n-1]
	}
	seg := &segment{}
	s.segs = append(s.segs, seg)
	return seg
}

// sealLocked freezes a full segment: its page directory is sorted by
// PID then LSN for binary search, and the segment takes no more appends.
func (s *Store) sealLocked(seg *segment) {
	sort.Slice(seg.index, func(i, j int) bool { return recLess(seg.index[i], seg.index[j]) })
	seg.sealed = true
	if s.onSeal != nil {
		s.onSeal()
	}
}

// Sync does nothing: an append returns with its bytes on the device.
// It remains for existing callers.
func (s *Store) Sync() error { return nil }

// Entries returns the number of archived pages.
func (s *Store) Entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries
}

// Segments returns the number of segments, sealed or active.
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segs)
}

// SealedSegments returns how many segments have been sealed.
func (s *Store) SealedSegments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, seg := range s.segs {
		if seg.sealed {
			n++
		}
	}
	return n
}

// Close does nothing; it remains for existing callers.
func (s *Store) Close() error { return nil }

// snapshot captures the segment list and their clean sizes, so that
// ScanPartition reads without the store lock and never holds it across
// its caller's callback.
func (s *Store) snapshot() []scanSeg {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]scanSeg, len(s.segs))
	for i, seg := range s.segs {
		out[i] = scanSeg{seg: seg, size: seg.size}
	}
	return out
}

type scanSeg struct {
	seg  *segment
	size int64
}

// ScanPartition calls fn with every archived log page of one partition
// in LSN order, located through the per-segment directories by binary
// search. Duplicate LSNs (an append retried across a crash is
// at-least-once) are delivered once. page is a fresh buffer that fn may
// keep.
func (s *Store) ScanPartition(pid addr.PartitionID, fn func(lsn simdisk.LSN, page []byte) error) error {
	seen := make(map[simdisk.LSN]bool)
	for _, ss := range s.snapshot() {
		s.mu.Lock()
		idx := append([]indexRec(nil), ss.seg.index...)
		sealed := ss.seg.sealed
		s.mu.Unlock()
		if !sealed {
			sort.Slice(idx, func(i, j int) bool { return recLess(idx[i], idx[j]) })
		}
		first := sort.Search(len(idx), func(i int) bool { return !pidLess(idx[i].pid, pid) })
		for i := first; i < len(idx) && idx[i].pid == pid; i++ {
			if seen[idx[i].lsn] {
				continue
			}
			raw, derr := ss.seg.readEntry(idx[i].off, ss.size)
			if derr != nil {
				continue
			}
			e, ok, err := s.deliver(ss.seg, raw)
			if err != nil {
				return err
			}
			if !ok || e.PID != pid || e.LSN != idx[i].lsn {
				continue
			}
			seen[e.LSN] = true
			if err := fn(e.LSN, e.Data); err != nil {
				return err
			}
		}
	}
	return nil
}

// deliver runs the arch.read fault point for one entry about to reach a
// caller. ok=false means the entry was damaged (injected or pre-existing)
// and must be skipped — detected rot, never delivered.
func (s *Store) deliver(seg *segment, e Entry) (Entry, bool, error) {
	if s.inj == nil {
		return e, true, nil
	}
	dec := s.inj.Check(fault.PointArchRead, 0)
	if dec.Err != nil {
		return e, false, dec.Err
	}
	if dec.MarkBad {
		// Media decay: damage the entry's first frame in place so every
		// later read fails too.
		seg.decay(e.Off)
		return e, false, nil
	}
	if dec.Mutated() {
		// Transient rot of the returned copy only; the stored frames
		// stay pristine. The damaged bytes fail the wal page decode (or
		// the entry parse) downstream — detected, never applied.
		e.Data = dec.MutateBytes(e.Data)
	}
	return e, true, nil
}

// readEntry re-reads one entry from its first frame's offset, reading
// no further than limit.
func (g *segment) readEntry(off, limit int64) (Entry, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var payload []byte
	for pos := off; ; pos += FrameSize {
		if pos+FrameSize > limit {
			return Entry{}, fmt.Errorf("%w: entry at %d runs past segment end", ErrBadFrame, off)
		}
		flags, chunk, err := decodeFrame(g.b[pos : pos+FrameSize])
		if err != nil {
			return Entry{}, err
		}
		if pos == off && flags&flagFirst == 0 {
			return Entry{}, fmt.Errorf("%w: offset %d is not an entry start", ErrBadFrame, off)
		}
		payload = append(payload, chunk...)
		if flags&flagLast != 0 {
			return parseEntry(payload, off)
		}
	}
}

// writeAt copies p into the segment at off, growing it as needed.
func (g *segment) writeAt(p []byte, off int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if need := off + int64(len(p)); need > int64(len(g.b)) {
		g.b = append(g.b, make([]byte, need-int64(len(g.b)))...)
	}
	copy(g.b[off:], p)
}

// decay damages the checksum of the frame at off in place, so every
// later read of it fails.
func (g *segment) decay(off int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i := off + FrameSize - 1; i < int64(len(g.b)) {
		g.b[i] ^= 0xFF
	}
}
