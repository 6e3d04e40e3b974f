// Package archive is the append-only archive tier (§2.6), and only the
// storage half of it: log pages rolled off the log disks are appended to
// checksummed segment files under their partition address and LSN, and
// read back one partition at a time through each segment's in-memory
// page directory (ScanPartition). Together with the still-resident
// log pages that is every partition's complete REDO history, so losing
// a checkpoint image, or the whole checkpoint disk set, never loses
// committed data. Replaying the history into a partition is recovery,
// and lives with the rest of it in internal/core (restorePartition).
package archive

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mmdb/internal/addr"
	"mmdb/internal/fault"
	"mmdb/internal/simdisk"
)

// Store is the append-only archive tier (§2.6): the medium that filled
// log disks are rolled onto. It replaces the simulated in-memory tape
// with immutable, checksummed, fixed-frame, time-ordered segment files,
// so the archive actually survives the process. Each segment's page
// directory, sorted by (PID, LSN), is kept in memory and rebuilt from
// the segment's frames at Open, so one partition's history is located by
// binary search instead of a full replay.
//
// Backed by a directory when opened with one (real files, fsynced on
// demand), or by an in-process buffer for tests and ephemeral databases
// (same byte format, no durability across process exit).
type Store struct {
	mu       sync.Mutex
	fs       archFS
	segBytes int64
	segs     []*segment
	inj      *fault.Injector
	onSeal   func()
	entries  int // archived pages
}

type segment struct {
	name   string
	f      segFile
	size   int64      // clean frame-aligned logical size
	sealed bool       // rotated away from and fsynced: no more appends
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

const segSuffix = ".mmar"

// Open opens (or creates) an archive store. dir == "" selects the
// in-memory backend; otherwise dir is created if needed and existing
// segment files are scanned, torn tails from a crashed append are
// truncated away, and appends resume on the last segment unless it is
// full.
func Open(dir string, segBytes int) (*Store, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	var fs archFS
	if dir == "" {
		fs = newMemFS()
	} else {
		ofs, err := newOSFS(dir)
		if err != nil {
			return nil, err
		}
		fs = ofs
	}
	s := &Store{fs: fs, segBytes: int64(segBytes)}
	names, err := fs.list()
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for i, name := range names {
		f, err := fs.open(name)
		if err != nil {
			return nil, fmt.Errorf("archive: opening segment %s: %w", name, err)
		}
		size, err := f.size()
		if err != nil {
			return nil, err
		}
		buf := make([]byte, size)
		if _, err := readFull(f, buf, 0); err != nil {
			return nil, fmt.Errorf("archive: reading segment %s: %w", name, err)
		}
		// The frame scan rebuilds the page directory: it tolerates torn
		// tails and skips damaged frames individually. A segment is
		// rotated away from once it reaches segBytes, so every segment
		// but the last is sealed, and the last is if it is full.
		entries, clean, _, _ := DecodeSegment(buf)
		seg := &segment{name: name, f: f, size: int64(clean)}
		seg.sealed = i < len(names)-1 || seg.size >= s.segBytes
		for _, e := range entries {
			seg.index = append(seg.index, indexRec{pid: e.PID, lsn: e.LSN, off: e.Off})
		}
		sort.Slice(seg.index, func(i, j int) bool { return recLess(seg.index[i], seg.index[j]) })
		s.entries += len(seg.index)
		s.segs = append(s.segs, seg)
	}
	return s, nil
}

// SetInjector attaches the fault injector; appends hit arch.append and
// scans/rebuild reads hit arch.read.
func (s *Store) SetInjector(inj *fault.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inj = inj
}

// SetOnSeal registers a callback invoked (outside the store lock is NOT
// guaranteed; keep it cheap) each time a segment is sealed.
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
	seg, err := s.activeLocked()
	if err != nil {
		return err
	}
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
	if _, err := seg.f.writeAt(frames[:apply], seg.size); err != nil {
		return fmt.Errorf("archive: appending to %s: %w", seg.name, err)
	}
	if apply < len(frames) || dec.Err != nil {
		// Torn or failed append: the logical size is not advanced, so
		// the partial frames are overwritten by the next append (or
		// truncated away by tail repair after a crash) and the caller
		// retries the whole entry.
		if dec.Err != nil {
			return dec.Err
		}
		return fault.ErrInjected
	}
	if dec.MarkBad {
		// ActCorrupt: the append "succeeds" while the medium decays —
		// damage the first frame's checksum in place so a later read
		// detects and skips the entry.
		var flip [1]byte
		if _, err := readFull(seg.f, flip[:], seg.size+FrameSize-1); err == nil {
			flip[0] ^= 0xFF
			_, _ = seg.f.writeAt(flip[:], seg.size+FrameSize-1)
		}
	}
	seg.index = append(seg.index, indexRec{pid: pid, lsn: lsn, off: seg.size})
	seg.size += int64(len(frames))
	s.entries++
	if seg.size >= s.segBytes {
		s.sealLocked(seg)
	}
	return nil
}

// activeLocked returns the segment open for appends, creating the next
// one if the store is empty or the last segment is sealed.
func (s *Store) activeLocked() (*segment, error) {
	if n := len(s.segs); n > 0 && !s.segs[n-1].sealed {
		return s.segs[n-1], nil
	}
	name := fmt.Sprintf("seg-%08d%s", len(s.segs), segSuffix)
	f, err := s.fs.create(name)
	if err != nil {
		return nil, fmt.Errorf("archive: creating segment %s: %w", name, err)
	}
	seg := &segment{name: name, f: f}
	s.segs = append(s.segs, seg)
	return seg, nil
}

// sealLocked freezes a full segment: its page directory is sorted by
// PID then LSN for binary search, the file is fsynced, and the segment
// takes no more appends. A failed fsync leaves the segment unsealed;
// the next append retries.
func (s *Store) sealLocked(seg *segment) {
	sort.Slice(seg.index, func(i, j int) bool { return recLess(seg.index[i], seg.index[j]) })
	if err := seg.f.sync(); err != nil {
		return
	}
	seg.sealed = true
	if s.onSeal != nil {
		s.onSeal()
	}
}

// Sync flushes the active segment to its medium. Log-disk rollover
// calls it before dropping the rolled pages, so the archive never
// trails the drop.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.segs); n > 0 && !s.segs[n-1].sealed {
		return s.segs[n-1].f.sync()
	}
	return nil
}

// Entries returns the number of archived pages.
func (s *Store) Entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries
}

// Segments returns the number of segment files, sealed or active.
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

// Close closes the underlying segment files. The store must not be
// used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, seg := range s.segs {
		if err := seg.f.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

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
			raw, derr := s.readEntryAt(ss.seg, idx[i].off, ss.size)
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
		var flip [1]byte
		if _, err := readFull(seg.f, flip[:], e.Off+FrameSize-1); err == nil {
			flip[0] ^= 0xFF
			_, _ = seg.f.writeAt(flip[:], e.Off+FrameSize-1)
		}
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

// readEntryAt re-reads one entry from its frame offset.
func (s *Store) readEntryAt(seg *segment, off, limit int64) (Entry, error) {
	var payload []byte
	start := off
	for {
		if off+FrameSize > limit {
			return Entry{}, fmt.Errorf("%w: entry at %d runs past segment end", ErrBadFrame, start)
		}
		var f [FrameSize]byte
		if _, err := readFull(seg.f, f[:], off); err != nil {
			return Entry{}, err
		}
		flags, chunk, err := decodeFrame(f[:])
		if err != nil {
			return Entry{}, err
		}
		if off == start && flags&flagFirst == 0 {
			return Entry{}, fmt.Errorf("%w: offset %d is not an entry start", ErrBadFrame, start)
		}
		payload = append(payload, chunk...)
		off += FrameSize
		if flags&flagLast != 0 {
			break
		}
	}
	return parseEntry(payload, start)
}

// --- backends ---

type archFS interface {
	list() ([]string, error)
	create(name string) (segFile, error)
	open(name string) (segFile, error)
}

type segFile interface {
	io.ReaderAt
	writeAt(p []byte, off int64) (int, error)
	size() (int64, error)
	sync() error
	close() error
}

func readFull(f io.ReaderAt, p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	n, err := f.ReadAt(p, off)
	if err == io.EOF && n == len(p) {
		err = nil
	}
	return n, err
}

// osFS stores segments as real files in a directory, with the directory
// entry fsynced on segment creation so a crash cannot lose the file
// itself.
type osFS struct {
	dir string
}

func newOSFS(dir string) (*osFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &osFS{dir: dir}, nil
}

func (o *osFS) list() ([]string, error) {
	des, err := os.ReadDir(o.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range des {
		if !de.IsDir() && strings.HasSuffix(de.Name(), segSuffix) {
			names = append(names, de.Name())
		}
	}
	return names, nil
}

func (o *osFS) create(name string) (segFile, error) {
	f, err := os.OpenFile(filepath.Join(o.dir, name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if d, derr := os.Open(o.dir); derr == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return (*osFile)(f), nil
}

func (o *osFS) open(name string) (segFile, error) {
	f, err := os.OpenFile(filepath.Join(o.dir, name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return (*osFile)(f), nil
}

type osFile os.File

func (f *osFile) ReadAt(p []byte, off int64) (int, error) { return (*os.File)(f).ReadAt(p, off) }
func (f *osFile) writeAt(p []byte, off int64) (int, error) {
	return (*os.File)(f).WriteAt(p, off)
}
func (f *osFile) size() (int64, error) {
	st, err := (*os.File)(f).Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
func (f *osFile) sync() error  { return (*os.File)(f).Sync() }
func (f *osFile) close() error { return (*os.File)(f).Close() }

// memFS keeps segments in process memory: the same byte format with no
// durability across process exit. It survives the simulated power
// cycles of crashhunt (the Hardware, and so the Store, is carried
// across DB.Crash/Recover) but not a real restart — production
// configurations set Config.ArchiveDir.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

func newMemFS() *memFS { return &memFS{files: make(map[string]*memFile)} }

func (m *memFS) list() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for n := range m.files {
		names = append(names, n)
	}
	return names, nil
}

func (m *memFS) create(name string) (segFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	m.files[name] = f
	return f, nil
}

func (m *memFS) open(name string) (segFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, os.ErrNotExist
	}
	return f, nil
}

type memFile struct {
	mu sync.Mutex
	b  []byte
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= int64(len(f.b)) {
		return 0, io.EOF
	}
	n := copy(p, f.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) writeAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if need := off + int64(len(p)); need > int64(len(f.b)) {
		f.b = append(f.b, make([]byte, need-int64(len(f.b)))...)
	}
	copy(f.b[off:], p)
	return len(p), nil
}

func (f *memFile) size() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.b)), nil
}

func (f *memFile) sync() error  { return nil }
func (f *memFile) close() error { return nil }
