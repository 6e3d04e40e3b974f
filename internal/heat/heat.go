// Package heat tracks per-partition access heat: how often each
// partition is touched by transaction processing. The ranking it
// maintains is the input to heat-guided recovery ordering (ROADMAP:
// recover what traffic actually uses first, so time-to-p99-restored —
// the moment ≥99% of pre-crash access weight is resident again — beats
// time-to-fully-recovered by a wide margin on skewed workloads).
//
// The tracker lives on the hot path of mm.Store.Partition. Each
// partition's count is created once and kept until the partition is
// dropped (Forget zeroes it, only Drop deletes it), so the store holds a
// resident partition's count on the partition itself, looked up by
// address (Count) when the partition is installed: a resolve is one
// atomic add on that count plus Tick, which drives the touch metric and
// the persist cadence. Counts only grow, so the ranking is by all-time
// totals since the partition was last forgotten; nothing in the
// tracker reads the clock.
//
// Persistence follows the trace.FlightRing pattern: the ranking is
// serialised into a stablemem.Region registered under a well-known
// root key, so it survives the crash model exactly as the Stable Log
// Buffer does. The region holds two alternating generation slots, each
// CRC-guarded, so a torn persist can never destroy the previous good
// snapshot: the loader picks the newest slot whose checksum verifies.
// After a crash, Attach recovers the pre-crash ranking for the restart
// sweep and seeds the new generation's tracker with it.
package heat

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mmdb/internal/addr"
	"mmdb/internal/metrics"
	"mmdb/internal/stablemem"
)

// rootKey names the heat snapshot in the stable memory root, alongside
// the SLB, SLT, and trace flight-recorder keys.
const rootKey = "mmdb-heat-snapshot"

// DefaultPersistEvery is the touch interval between stable persists
// when the config leaves it zero.
const DefaultPersistEvery = 4096

// PartHeat is one partition's accumulated access weight.
type PartHeat struct {
	PID    addr.PartitionID
	Weight int64
}

// Tracker accumulates per-partition access counts. All methods are
// nil-receiver safe, so the disabled state (Config.HeatSnapshotBytes
// == 0) costs untraced hot paths a single branch.
type Tracker struct {
	snap         *Snapshot
	persistEvery int64

	// mu guards counts: one per partition counted and not dropped, so a
	// count handed out by Count stays the partition's until Drop.
	mu     sync.RWMutex
	counts map[addr.PartitionID]*atomic.Int64

	// untilPersist counts down the touches left before the next periodic
	// persist: the toucher that takes it to zero adds persistEvery back,
	// so persists fall every persistEvery touches without a division.
	untilPersist atomic.Int64
	persisting   atomic.Bool // single-flight guard for periodic persists

	persistMu sync.Mutex
	ranked    []PartHeat // persist's ranking buffer, reused

	// Optional instruments and hooks, wired by the owning manager.
	// All nil-safe.
	Touches       *metrics.Counter
	Persists      *metrics.Counter
	TrackedParts  *metrics.Gauge
	SnapshotBytes *metrics.Gauge
	// OnPersist runs after each stable persist with the entry count and
	// payload bytes written (trace-event hook).
	OnPersist func(parts, bytes int)
}

// Attach recovers the previous generation's heat snapshot from stable
// memory and installs the new generation's tracker:
//
//   - the pre-crash ranking is decoded and returned regardless of the
//     new generation's configuration, so the restart sweep can order by
//     it even if tracking is being turned off;
//   - if bytes > 0 a snapshot region of that size is (re)installed in
//     the stable root — the previous region is reused when the size
//     matches, else freed and reallocated — and the new tracker's
//     counts are seeded with the recovered ranking so heat survives
//     repeated crash cycles;
//   - if bytes <= 0 the previous region is freed and unregistered, and
//     a nil tracker is returned.
//
// rejected counts prior-generation snapshot slots that were present but
// failed validation (length, checksum, or payload decode): the recovery
// then proceeds in catalog order as if no ranking existed, and the
// owner surfaces the count as heat/snapshot_rejected.
//
// decay must be 0, and any other value is an error: counts do not decay.
// The parameter remains only because the benchmark harness passes it.
func Attach(mem *stablemem.Memory, bytes, persistEvery int, decay time.Duration) (t *Tracker, recovered []PartHeat, rejected int, err error) {
	if decay != 0 {
		return nil, nil, 0, fmt.Errorf("heat: decay is %v; it must be 0, counts do not decay", decay)
	}
	prior, _ := mem.Root(rootKey).(*Snapshot)
	if prior != nil {
		recovered, rejected = prior.Load()
	}
	var snap *Snapshot
	switch {
	case bytes > 0 && prior != nil && prior.Size() == bytes:
		snap = prior
	case bytes > 0:
		prior.Free()
		s, serr := NewSnapshot(mem, bytes)
		if serr != nil {
			return nil, recovered, rejected, serr
		}
		snap = s
		mem.SetRoot(rootKey, s)
	default:
		prior.Free()
		if prior != nil {
			mem.SetRoot(rootKey, nil)
		}
		return nil, recovered, rejected, nil
	}
	if persistEvery <= 0 {
		persistEvery = DefaultPersistEvery
	}
	t = &Tracker{
		snap:         snap,
		persistEvery: int64(persistEvery),
		counts:       make(map[addr.PartitionID]*atomic.Int64, len(recovered)),
	}
	t.untilPersist.Store(t.persistEvery)
	// Seed the counts from one allocation: a restart recovers every
	// partition's count before its first transaction.
	seeds := make([]atomic.Int64, len(recovered))
	for i, ph := range recovered {
		if ph.Weight > 0 {
			seeds[i].Store(ph.Weight)
			t.counts[ph.PID] = &seeds[i]
		}
	}
	if snap != prior && len(recovered) > 0 {
		// The region was reallocated (size change): the recovered ranking
		// lives only in this process now, so re-persist it immediately.
		t.Persist()
	}
	return t, recovered, rejected, nil
}

// Touch records one access to the partition: Count plus Tick, for a
// caller that does not hold the count. Nil-safe.
func (t *Tracker) Touch(pid addr.PartitionID) {
	if t == nil {
		return
	}
	t.Count(pid).Add(1)
	t.Tick()
}

// Count returns the partition's access count, creating it at zero. The
// same count is returned until the partition is dropped, so a caller may
// keep it and add to it directly, then call Tick. Nil-safe: a nil
// tracker returns nil.
func (t *Tracker) Count(pid addr.PartitionID) *atomic.Int64 {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	c := t.counts[pid]
	t.mu.RUnlock()
	if c == nil {
		t.mu.Lock()
		if c = t.counts[pid]; c == nil {
			c = new(atomic.Int64)
			t.counts[pid] = c
			t.TrackedParts.Set(int64(len(t.counts)))
		}
		t.mu.Unlock()
	}
	return c
}

// Tick records one access whose count the caller has already added to:
// it counts the touch and persists every persistEvery touches. Nil-safe.
func (t *Tracker) Tick() {
	if t == nil {
		return
	}
	t.Touches.Inc()
	if t.untilPersist.Add(-1) == 0 {
		t.untilPersist.Add(t.persistEvery)
		// Single-flight: one toucher persists, concurrent touchers skip.
		if t.persisting.CompareAndSwap(false, true) {
			t.persist()
			t.persisting.Store(false)
		}
	}
}

// Forget resets a partition's heat to zero; the partition keeps its
// count. Nil-safe.
func (t *Tracker) Forget(pid addr.PartitionID) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if c := t.counts[pid]; c != nil {
		c.Store(0)
	}
	t.mu.Unlock()
}

// Drop deletes a dropped partition's count, so neither the ranking, its
// sort nor a later persist carries it. Call it once nothing holds the
// count: the store has let the partition go (mm.Store.DropSegment). A
// later Count of the address starts a new count at zero. Nil-safe.
func (t *Tracker) Drop(pid addr.PartitionID) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.counts, pid)
	t.TrackedParts.Set(int64(len(t.counts)))
	t.mu.Unlock()
}

// Tracked returns how many partitions have a count. Nil-safe.
func (t *Tracker) Tracked() int {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.counts)
}

// Weight returns the partition's current heat. Nil-safe.
func (t *Tracker) Weight(pid addr.PartitionID) int64 {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	c := t.counts[pid]
	t.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// Ranking returns the live ranking, hottest first; ties break by
// partition address so the order is deterministic. Partitions of zero
// heat are left out. Nil-safe.
func (t *Tracker) Ranking() []PartHeat {
	if t == nil {
		return nil
	}
	return t.rank(nil)
}

// rank writes the ranking into buf, reusing its storage.
func (t *Tracker) rank(buf []PartHeat) []PartHeat {
	t.mu.RLock()
	buf = slices.Grow(buf[:0], len(t.counts))
	for pid, c := range t.counts {
		if w := c.Load(); w > 0 {
			buf = append(buf, PartHeat{PID: pid, Weight: w})
		}
	}
	t.mu.RUnlock()
	slices.SortFunc(buf, hotterFirst)
	return buf
}

// hotterFirst orders by weight, heaviest first, then by address.
func hotterFirst(a, b PartHeat) int {
	switch {
	case a.Weight > b.Weight:
		return -1
	case a.Weight < b.Weight:
		return 1
	case a.PID.Less(b.PID):
		return -1
	case b.PID.Less(a.PID):
		return 1
	}
	return 0
}

// Persist serialises the current ranking into the stable snapshot
// region. Called on the periodic touch cadence, and explicitly by
// clean-shutdown and benchmark paths. Nil-safe.
func (t *Tracker) Persist() {
	if t == nil {
		return
	}
	t.persist()
}

func (t *Tracker) persist() {
	t.persistMu.Lock()
	t.ranked = t.rank(t.ranked)
	stored, bytes := t.snap.Store(t.ranked)
	t.persistMu.Unlock()
	t.Persists.Inc()
	t.SnapshotBytes.Set(int64(bytes))
	if t.OnPersist != nil {
		t.OnPersist(stored, bytes)
	}
}

// ---------------------------------------------------------------------
// Stable snapshot region: two alternating generation slots, each
// [magic][gen][len][crc32][payload], so a persist torn by a crash can
// never destroy the previous good snapshot.
// ---------------------------------------------------------------------

const (
	snapMagic   = "MHT1"
	slotHdrSize = 4 + 8 + 4 + 4 // magic + gen + payload len + crc32
	// MinSnapshotBytes is the smallest usable region: two slots with
	// room for a header and a handful of entries each.
	MinSnapshotBytes = 2 * (slotHdrSize + 64)
)

// Snapshot is the crash-surviving heat ranking, carved from stable
// memory and registered in the stable root. It survives crashes
// because the stablemem.Memory value does.
type Snapshot struct {
	mu      sync.Mutex
	reg     *stablemem.Region
	gen     uint64
	payload []byte // Store's encoding buffer, reused
}

// NewSnapshot carves a snapshot region of the given size out of stable
// memory. Sizes below MinSnapshotBytes are raised to it.
func NewSnapshot(mem *stablemem.Memory, size int) (*Snapshot, error) {
	if size < MinSnapshotBytes {
		size = MinSnapshotBytes
	}
	reg, err := mem.NewRegion(size)
	if err != nil {
		return nil, err
	}
	return &Snapshot{reg: reg}, nil
}

// Snap returns the tracker's stable snapshot region. Nil-safe. Fault
// tests use it to rot slot bytes directly: Region writes deliberately
// sit outside the injector's byte-mutation points (see stablemem.Region),
// so snapshot rot cannot be produced through a fault plan.
func (t *Tracker) Snap() *Snapshot {
	if t == nil {
		return nil
	}
	return t.snap
}

// CorruptSlots flips a payload byte in every present generation slot so
// its CRC check fails: the loader must reject both generations and the
// recovery sweep must fall back to catalog order. A fault-injection
// hook for rot testing. Nil-safe.
func (s *Snapshot) CorruptSlots() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	half := s.reg.Size() / 2
	for slot := 0; slot < 2; slot++ {
		off := slot * half
		var hdr [slotHdrSize]byte
		s.reg.ReadAt(hdr[:], off)
		if string(hdr[:4]) != snapMagic {
			continue
		}
		var b [1]byte
		s.reg.ReadAt(b[:], off+slotHdrSize)
		b[0] ^= 0xFF
		s.reg.WriteAt(off+slotHdrSize, b[:])
	}
}

// Size returns the region capacity in bytes.
func (s *Snapshot) Size() int {
	if s == nil {
		return 0
	}
	return s.reg.Size()
}

// Free releases the region's stable reservation. Nil-safe.
func (s *Snapshot) Free() {
	if s != nil {
		s.reg.Free()
	}
}

// Store writes the ranking (hottest first) into the next generation
// slot. If the full ranking does not fit in a slot, the encoded prefix
// — the hottest entries — is kept and the tail dropped: ranking the
// working set is the snapshot's whole job. It returns how many entries
// and payload bytes were written. Nil-safe.
func (s *Snapshot) Store(ranked []PartHeat) (stored, payloadBytes int) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	slotCap := s.reg.Size()/2 - slotHdrSize
	var tmp [3 * binary.MaxVarintLen64]byte
	if cap(s.payload) < slotCap {
		s.payload = make([]byte, 0, slotCap)
	}
	payload := s.payload[:8]
	for _, ph := range ranked {
		n := binary.PutUvarint(tmp[:], uint64(ph.PID.Segment))
		n += binary.PutUvarint(tmp[n:], uint64(ph.PID.Part))
		n += binary.PutUvarint(tmp[n:], uint64(ph.Weight))
		if len(payload)+n > slotCap {
			break
		}
		payload = append(payload, tmp[:n]...)
		stored++
	}
	// The entry count is a fixed-width prefix so the varint entries can
	// be encoded in one pass above.
	binary.LittleEndian.PutUint64(payload[:8], uint64(stored))
	s.gen++
	slotOff := int(s.gen%2) * (s.reg.Size() / 2)
	var hdr [slotHdrSize]byte
	copy(hdr[:4], snapMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], s.gen)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(payload))
	// Payload first, header last: a slot is only considered by the
	// loader once its checksummed header lands.
	s.reg.WriteAt(slotOff+slotHdrSize, payload)
	s.reg.WriteAt(slotOff, hdr[:])
	return stored, len(payload)
}

// Load decodes the newest valid generation slot, returning the ranking
// hottest first (the stored order) plus the number of slots that were
// present but rejected — magic in place with a bad length, checksum, or
// payload, i.e. rot rather than fresh memory. A region with no valid
// slot yields a nil ranking; heat ordering then falls back to catalog
// order, so rejection is never an error, only a counted event. Nil-safe.
func (s *Snapshot) Load() (ranking []PartHeat, rejected int) {
	if s == nil {
		return nil, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	half := s.reg.Size() / 2
	var best []PartHeat
	var bestGen uint64
	for slot := 0; slot < 2; slot++ {
		off := slot * half
		var hdr [slotHdrSize]byte
		s.reg.ReadAt(hdr[:], off)
		if string(hdr[:4]) != snapMagic {
			continue
		}
		gen := binary.LittleEndian.Uint64(hdr[4:12])
		plen := int(binary.LittleEndian.Uint32(hdr[12:16]))
		if plen < 8 || plen > half-slotHdrSize {
			rejected++
			continue
		}
		payload := make([]byte, plen)
		s.reg.ReadAt(payload, off+slotHdrSize)
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[16:20]) {
			rejected++
			continue
		}
		ranked, ok := decodeRanking(payload)
		if !ok {
			rejected++
			continue
		}
		if gen < bestGen {
			continue
		}
		best, bestGen = ranked, gen
		if gen > s.gen {
			s.gen = gen // continue the generation sequence after reload
		}
	}
	return best, rejected
}

// decodeRanking parses a slot payload. The payload normally sits behind
// a verified CRC, but nothing here may trust that: the entry count is
// bounded by the payload size (three varint bytes minimum per entry)
// before it drives an allocation, weights must fit int64, and trailing
// bytes are rejected.
func decodeRanking(payload []byte) ([]PartHeat, bool) {
	if len(payload) < 8 {
		return nil, false
	}
	count := binary.LittleEndian.Uint64(payload[:8])
	buf := payload[8:]
	if count > uint64(len(buf))/3 {
		return nil, false
	}
	out := make([]PartHeat, 0, count)
	for i := uint64(0); i < count; i++ {
		seg, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, false
		}
		buf = buf[n:]
		part, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, false
		}
		buf = buf[n:]
		w, n := binary.Uvarint(buf)
		if n <= 0 || w > math.MaxInt64 {
			return nil, false
		}
		buf = buf[n:]
		out = append(out, PartHeat{
			PID:    addr.PartitionID{Segment: addr.SegmentID(seg), Part: addr.PartitionNum(part)},
			Weight: int64(w),
		})
	}
	if len(buf) != 0 {
		return nil, false
	}
	return out, true
}
