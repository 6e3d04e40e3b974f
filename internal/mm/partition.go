// Package mm implements the MM-DBMS memory organization of §2: every
// database object (relation, index, or system data structure) is stored
// in its own logical segment; segments are composed of fixed-size
// partitions, the unit of memory allocation, checkpoint transfer, log
// grouping, and post-crash recovery. Entities (tuples or index
// components) are stored in partitions and do not cross partition
// boundaries.
//
// A partition is a self-contained byte image: a header, a slot table
// growing up, and a string-space heap growing down from the end, managed
// as a heap with compaction. Keeping all state inside the byte image
// means a checkpoint is a memory-speed copy of the image and recovery is
// image + REDO replay, exactly as the paper requires.
package mm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mmdb/internal/addr"
)

// Binary layout constants for the partition image.
const (
	hdrNumSlots  = 0 // uint16: slot table size
	hdrFreeHead  = 2 // uint16: head of free-slot chain, noSlot if empty
	hdrHeapTop   = 4 // uint32: lowest used heap byte (heap grows down)
	hdrLiveBytes = 8 // uint32: live entity bytes (free-space accounting)
	headerSize   = 12

	slotEntrySize = 8 // uint32 offset + uint32 length
	freeOffset    = 0xFFFFFFFF
	noSlot        = 0xFFFF
	maxSlots      = noSlot // slots are uint16; noSlot is the sentinel
)

// Errors returned by partition operations.
var (
	ErrPartitionFull = errors.New("mm: partition full")
	ErrBadSlot       = errors.New("mm: no entity at slot")
	ErrEntityTooBig  = errors.New("mm: entity exceeds partition capacity")
)

// Partition is one fixed-size unit of database storage. The latch
// (§2.5: latches are held over partition manipulation) must be held by
// callers around any mutation; read paths may rely on the caller's
// higher-level locking.
type Partition struct {
	id  addr.PartitionID
	mu  sync.Mutex // the partition latch
	buf []byte

	// Volatile attributes, not part of the image. owner is the
	// transaction whose uncommitted allocation created the partition (0
	// once it commits); other transactions' inserts pass it over. hint
	// is the owning segment's first-fit cursor, set when the store
	// attaches the partition; operations that free space rewind it.
	owner atomic.Uint64
	hint  *placeHint
}

// NewPartition creates an empty partition image of size bytes.
func NewPartition(id addr.PartitionID, size int) *Partition {
	if size < headerSize+slotEntrySize {
		panic("mm: partition size too small")
	}
	p := &Partition{id: id, buf: make([]byte, size)}
	p.setU16(hdrNumSlots, 0)
	p.setU16(hdrFreeHead, noSlot)
	p.setU32(hdrHeapTop, uint32(size))
	p.setU32(hdrLiveBytes, 0)
	return p
}

// ErrBadImage reports a checkpoint image that fails structural
// validation: rotted header fields or slot entries that would otherwise
// surface later as slice-bounds panics (or an infinite free-chain walk)
// deep inside replay.
var ErrBadImage = errors.New("mm: corrupt partition image")

// FromImage reconstructs a partition from a copy of a checkpoint image:
// AdoptImage over bytes.Clone(image), so the caller keeps image.
func FromImage(id addr.PartitionID, image []byte) (*Partition, error) {
	return AdoptImage(id, bytes.Clone(image))
}

// AdoptImage reconstructs a partition from a checkpoint image, validating
// every structural invariant the accessors rely on, and keeps image as
// the partition's buffer: the caller hands it over and must not touch it
// again. The image bytes come off a disk track whose ECC a mutation
// fault (or real bit rot) can leave intact, so nothing about them can be
// trusted.
func AdoptImage(id addr.PartitionID, image []byte) (*Partition, error) {
	if len(image) < headerSize+slotEntrySize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrBadImage, len(image), headerSize+slotEntrySize)
	}
	p := &Partition{id: id, buf: image}
	n := int(p.u16(hdrNumSlots))
	tableEnd := headerSize + n*slotEntrySize
	top := int(p.u32(hdrHeapTop))
	live := int(p.u32(hdrLiveBytes))
	if tableEnd > len(image) {
		return nil, fmt.Errorf("%w: slot table of %d entries overruns %d-byte image", ErrBadImage, n, len(image))
	}
	if top < tableEnd || top > len(image) {
		return nil, fmt.Errorf("%w: heap top %d outside [%d,%d]", ErrBadImage, top, tableEnd, len(image))
	}
	if live > len(image)-top {
		return nil, fmt.Errorf("%w: %d live bytes exceed the %d-byte heap", ErrBadImage, live, len(image)-top)
	}
	entityBytes := 0
	for s := 0; s < n; s++ {
		off, length := p.slotEntry(addr.Slot(s))
		if off == freeOffset {
			if length > uint32(noSlot) {
				return nil, fmt.Errorf("%w: free slot %d chains to %d", ErrBadImage, s, length)
			}
			continue
		}
		if uint64(off) < uint64(top) || uint64(off)+uint64(length) > uint64(len(image)) {
			return nil, fmt.Errorf("%w: slot %d entity [%d,%d) outside heap [%d,%d)",
				ErrBadImage, s, off, uint64(off)+uint64(length), top, len(image))
		}
		entityBytes += int(length)
	}
	// Insert decides "full" from the header alone, and compaction packs
	// entities below the image end by their lengths: both need the live
	// byte count to be the truth.
	if entityBytes != live {
		return nil, fmt.Errorf("%w: header counts %d live bytes, entities hold %d", ErrBadImage, live, entityBytes)
	}
	// The free chain must be acyclic and reach only free slots: InsertAt
	// walks it during replay, so a rotted cycle would hang recovery.
	seen := 0
	for cur := p.u16(hdrFreeHead); cur != noSlot; seen++ {
		if int(cur) >= n || seen >= n {
			return nil, fmt.Errorf("%w: free chain broken at slot %d", ErrBadImage, cur)
		}
		off, next := p.slotEntry(addr.Slot(cur))
		if off != freeOffset {
			return nil, fmt.Errorf("%w: free chain reaches occupied slot %d", ErrBadImage, cur)
		}
		cur = uint16(next)
	}
	return p, nil
}

// MaxEntity returns the size of the largest entity a partition image of
// the given size can hold.
func MaxEntity(partSize int) int { return partSize - headerSize - slotEntrySize }

// ID returns the partition's identity.
func (p *Partition) ID() addr.PartitionID { return p.id }

// Size returns the partition image size in bytes.
func (p *Partition) Size() int { return len(p.buf) }

// Latch acquires the partition latch.
func (p *Partition) Latch() { p.mu.Lock() }

// Unlatch releases the partition latch.
func (p *Partition) Unlatch() { p.mu.Unlock() }

func (p *Partition) setU16(off int, v uint16) { binary.LittleEndian.PutUint16(p.buf[off:], v) }
func (p *Partition) setU32(off int, v uint32) { binary.LittleEndian.PutUint32(p.buf[off:], v) }
func (p *Partition) u16(off int) uint16       { return binary.LittleEndian.Uint16(p.buf[off:]) }
func (p *Partition) u32(off int) uint32       { return binary.LittleEndian.Uint32(p.buf[off:]) }

func (p *Partition) slotOff(s addr.Slot) int { return headerSize + int(s)*slotEntrySize }

func (p *Partition) slotEntry(s addr.Slot) (off, length uint32) {
	so := p.slotOff(s)
	return p.u32(so), p.u32(so + 4)
}

func (p *Partition) setSlotEntry(s addr.Slot, off, length uint32) {
	so := p.slotOff(s)
	p.setU32(so, off)
	p.setU32(so+4, length)
}

// slotTableEnd returns the first byte past the slot table.
func (p *Partition) slotTableEnd() int {
	return headerSize + int(p.u16(hdrNumSlots))*slotEntrySize
}

// FreeBytes returns the total reclaimable space: the gap between slot
// table and heap top plus dead heap bytes (recoverable by compaction).
func (p *Partition) FreeBytes() int {
	return int(p.u32(hdrHeapTop)) - p.slotTableEnd() + p.deadBytes()
}

// deadBytes returns the heap bytes no live entity occupies: what
// compaction would reclaim.
func (p *Partition) deadBytes() int {
	return len(p.buf) - int(p.u32(hdrHeapTop)) - int(p.u32(hdrLiveBytes))
}

// Room returns the size of the largest entity Insert would accept, or
// -1 if it would accept none, read off the header in constant time: the
// free bytes, less a slot entry when the table must grow for it.
func (p *Partition) Room() int {
	room := p.FreeBytes()
	if p.u16(hdrFreeHead) == noSlot {
		if int(p.u16(hdrNumSlots)) >= maxSlots {
			return -1
		}
		room -= slotEntrySize
	}
	if room < 0 {
		return -1
	}
	return room
}

// Owner returns the transaction that privately owns the partition, or 0.
func (p *Partition) Owner() uint64 { return p.owner.Load() }

// SetOwner marks the partition as privately owned by txn (0 clears).
func (p *Partition) SetOwner(txn uint64) { p.owner.Store(txn) }

// EntityCount returns the number of live entities.
func (p *Partition) EntityCount() int {
	n := 0
	for s := 0; s < int(p.u16(hdrNumSlots)); s++ {
		if off, _ := p.slotEntry(addr.Slot(s)); off != freeOffset {
			n++
		}
	}
	return n
}

// allocSlot returns a free slot index, reusing the free chain or growing
// the table. Growing requires gap space below the heap top.
func (p *Partition) allocSlot() (addr.Slot, error) {
	if h := p.u16(hdrFreeHead); h != noSlot {
		_, next := p.slotEntry(addr.Slot(h))
		p.setU16(hdrFreeHead, uint16(next))
		return addr.Slot(h), nil
	}
	n := p.u16(hdrNumSlots)
	if int(n) >= maxSlots {
		return 0, ErrPartitionFull
	}
	if !p.reserve(slotEntrySize) {
		return 0, ErrPartitionFull
	}
	p.setU16(hdrNumSlots, n+1)
	p.setSlotEntry(addr.Slot(n), freeOffset, uint32(noSlot))
	return addr.Slot(n), nil
}

// reserve makes the gap between slot table and heap top at least n
// bytes, compacting only if that is both necessary and useful: an image
// with no dead bytes is left untouched. Reports whether the gap is now
// large enough.
func (p *Partition) reserve(n int) bool {
	if int(p.u32(hdrHeapTop))-p.slotTableEnd() >= n {
		return true
	}
	if p.deadBytes() == 0 {
		return false
	}
	p.compact()
	return int(p.u32(hdrHeapTop))-p.slotTableEnd() >= n
}

func (p *Partition) freeSlot(s addr.Slot) {
	p.setSlotEntry(s, freeOffset, uint32(p.u16(hdrFreeHead)))
	p.setU16(hdrFreeHead, uint16(s))
}

// heapAlloc reserves n bytes at the top of the heap, compacting if the
// bump gap is too small but dead space exists. Returns the offset.
func (p *Partition) heapAlloc(n int) (uint32, error) {
	if !p.reserve(n) {
		return 0, ErrPartitionFull
	}
	top := int(p.u32(hdrHeapTop)) - n
	p.setU32(hdrHeapTop, uint32(top))
	return uint32(top), nil
}

// compact squeezes live entities to the end of the image, reclaiming
// dead heap bytes. Slot indirection keeps entity addresses stable.
func (p *Partition) compact() {
	type live struct {
		slot addr.Slot
		off  uint32
		len  uint32
	}
	var entities []live
	for s := 0; s < int(p.u16(hdrNumSlots)); s++ {
		if off, length := p.slotEntry(addr.Slot(s)); off != freeOffset {
			entities = append(entities, live{addr.Slot(s), off, length})
		}
	}
	// Move highest-offset entities first so copies never overlap a
	// not-yet-moved source.
	slices.SortFunc(entities, func(a, b live) int { return cmp.Compare(b.off, a.off) })
	dst := uint32(len(p.buf))
	for _, e := range entities {
		dst -= e.len
		if dst != e.off {
			copy(p.buf[dst:dst+e.len], p.buf[e.off:e.off+e.len])
			p.setSlotEntry(e.slot, dst, e.len)
		}
	}
	p.setU32(hdrHeapTop, dst)
}

// Insert stores a new entity and returns its slot. Whether it fits is
// decided from the header (Room) before anything is touched, so a
// refused insert leaves the image byte-identical, and the image is
// compacted only when the entity fits and the bump gap alone is short.
func (p *Partition) Insert(data []byte) (addr.Slot, error) {
	if len(data) > MaxEntity(len(p.buf)) {
		return 0, fmt.Errorf("%w: %d bytes into %d-byte partition", ErrEntityTooBig, len(data), len(p.buf))
	}
	if len(data) > p.Room() {
		return 0, ErrPartitionFull
	}
	s, err := p.allocSlot()
	if err != nil {
		return 0, err
	}
	off, err := p.heapAlloc(len(data))
	if err != nil {
		p.freeSlot(s)
		return 0, err
	}
	copy(p.buf[off:], data)
	p.setSlotEntry(s, off, uint32(len(data)))
	p.setU32(hdrLiveBytes, p.u32(hdrLiveBytes)+uint32(len(data)))
	return s, nil
}

// InsertAt stores an entity at a specific slot; used by REDO replay,
// which must reproduce the exact addresses the original operations
// produced. The slot must be free (or beyond the current table).
func (p *Partition) InsertAt(s addr.Slot, data []byte) error {
	// Grow the table (as free slots) until s exists. allocSlot would
	// prefer the free chain, so extend the table explicitly.
	for int(s) >= int(p.u16(hdrNumSlots)) {
		n := p.u16(hdrNumSlots)
		if int(n) >= maxSlots {
			return ErrPartitionFull
		}
		if !p.reserve(slotEntrySize) {
			return ErrPartitionFull
		}
		p.setU16(hdrNumSlots, n+1)
		p.freeSlot(addr.Slot(n))
	}
	if off, _ := p.slotEntry(s); off != freeOffset {
		return fmt.Errorf("mm: InsertAt slot %d already occupied", s)
	}
	// Unlink s from the free chain.
	if h := p.u16(hdrFreeHead); h == uint16(s) {
		_, next := p.slotEntry(s)
		p.setU16(hdrFreeHead, uint16(next))
	} else {
		for cur := h; cur != noSlot; {
			_, next := p.slotEntry(addr.Slot(cur))
			if uint16(next) == uint16(s) {
				_, nn := p.slotEntry(s)
				p.setSlotEntry(addr.Slot(cur), freeOffset, nn)
				break
			}
			cur = uint16(next)
		}
	}
	off, err := p.heapAlloc(len(data))
	if err != nil {
		p.freeSlot(s)
		return err
	}
	copy(p.buf[off:], data)
	p.setSlotEntry(s, off, uint32(len(data)))
	p.setU32(hdrLiveBytes, p.u32(hdrLiveBytes)+uint32(len(data)))
	return nil
}

// Read returns the entity at slot s. The returned slice aliases the
// partition image and is only valid until the next mutation; callers
// that retain it must copy.
func (p *Partition) Read(s addr.Slot) ([]byte, error) {
	if int(s) >= int(p.u16(hdrNumSlots)) {
		return nil, fmt.Errorf("%w: slot %d", ErrBadSlot, s)
	}
	off, length := p.slotEntry(s)
	if off == freeOffset {
		return nil, fmt.Errorf("%w: slot %d", ErrBadSlot, s)
	}
	return p.buf[off : off+length : off+length], nil
}

// Lend latches the partition and returns the entity at slot s where it
// lies, with the latch that keeps it there: the borrower reads, then
// calls Unlock on it, and keeps nothing of data afterwards. While it
// holds the latch it must not demand another partition from the store —
// that may run an on-demand recovery — nor call into code that might. On
// error the latch is not held.
func (p *Partition) Lend(s addr.Slot) (data []byte, held sync.Locker, err error) {
	p.mu.Lock()
	data, err = p.Read(s)
	if err != nil {
		p.mu.Unlock()
		return nil, nil, err
	}
	return data, &p.mu, nil
}

// Update replaces the entity at slot s. Same-size updates are done in
// place; size changes reallocate within the partition.
func (p *Partition) Update(s addr.Slot, data []byte) error {
	if int(s) >= int(p.u16(hdrNumSlots)) {
		return fmt.Errorf("%w: slot %d", ErrBadSlot, s)
	}
	off, length := p.slotEntry(s)
	if off == freeOffset {
		return fmt.Errorf("%w: slot %d", ErrBadSlot, s)
	}
	if int(length) == len(data) {
		copy(p.buf[off:], data)
		return nil
	}
	// Fit check before any mutation: after freeing the old copy and a
	// full compaction, the heap top would sit at len(buf) - (live -
	// length); the new entity must fit above the slot table.
	if len(p.buf)-int(p.u32(hdrLiveBytes)-length)-len(data) < p.slotTableEnd() {
		return ErrPartitionFull
	}
	// Mark the old space dead so compaction may reclaim it.
	p.setU32(hdrLiveBytes, p.u32(hdrLiveBytes)-length)
	p.setSlotEntry(s, freeOffset, uint32(noSlot)) // keep out of free chain
	noff, err := p.heapAlloc(len(data))
	if err != nil {
		// Unreachable given the fit check above.
		panic("mm: Update realloc failed after fit check")
	}
	copy(p.buf[noff:], data)
	p.setSlotEntry(s, noff, uint32(len(data)))
	p.setU32(hdrLiveBytes, p.u32(hdrLiveBytes)+uint32(len(data)))
	if len(data) < int(length) {
		p.hint.rewind(p.id.Part)
	}
	return nil
}

// WriteAt overwrites length bytes of the entity at slot s starting at
// byte offset within the entity. Used for in-place field updates and
// index node mutation.
func (p *Partition) WriteAt(s addr.Slot, entOff int, data []byte) error {
	if int(s) >= int(p.u16(hdrNumSlots)) {
		return fmt.Errorf("%w: slot %d", ErrBadSlot, s)
	}
	off, length := p.slotEntry(s)
	if off == freeOffset {
		return fmt.Errorf("%w: slot %d", ErrBadSlot, s)
	}
	if entOff < 0 || entOff+len(data) > int(length) {
		return fmt.Errorf("mm: WriteAt [%d,%d) outside entity of %d bytes", entOff, entOff+len(data), length)
	}
	copy(p.buf[int(off)+entOff:], data)
	return nil
}

// Delete removes the entity at slot s.
func (p *Partition) Delete(s addr.Slot) error {
	if int(s) >= int(p.u16(hdrNumSlots)) {
		return fmt.Errorf("%w: slot %d", ErrBadSlot, s)
	}
	off, length := p.slotEntry(s)
	if off == freeOffset {
		return fmt.Errorf("%w: slot %d", ErrBadSlot, s)
	}
	p.setU32(hdrLiveBytes, p.u32(hdrLiveBytes)-length)
	p.freeSlot(s)
	p.hint.rewind(p.id.Part)
	return nil
}

// Slots calls fn for every live entity in slot order; fn's data slice
// aliases the image. It stops early if fn returns false.
func (p *Partition) Slots(fn func(s addr.Slot, data []byte) bool) {
	for s := 0; s < int(p.u16(hdrNumSlots)); s++ {
		off, length := p.slotEntry(addr.Slot(s))
		if off == freeOffset {
			continue
		}
		if !fn(addr.Slot(s), p.buf[off:off+length:off+length]) {
			return
		}
	}
}

// Snapshot returns a copy of the partition image: AppendImage(nil).
func (p *Partition) Snapshot() []byte { return p.AppendImage(nil) }

// AppendImage appends the partition image to dst and returns the
// extended slice: the unit of transfer for checkpoint operations (§2).
// The caller must hold whatever locks make the content
// transaction-consistent.
func (p *Partition) AppendImage(dst []byte) []byte { return append(dst, p.buf...) }

// Image exposes the raw partition image for in-place REDO replay; the
// caller must hold the latch.
func (p *Partition) Image() []byte { return p.buf }
