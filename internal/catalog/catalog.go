// Package catalog implements the system catalogs: the relation catalog
// (segment 0) and index catalog (segment 1), whose entities are encoded
// object descriptors. The catalogs are partition-resident database
// objects like any other — they are logged, checkpointed, and recovered
// through the same machinery — except that the list of catalog
// partition addresses (with their checkpoint disk locations) is kept in
// a well-known stable location, duplicated in the Stable Log Buffer and
// Stable Log Tail and periodically written to the log disk (§2.5), so
// that post-crash recovery can restore the catalogs first and then
// restore everything else on demand through them (§2.4 step 5, §2.5).
package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mmdb/internal/addr"
	"mmdb/internal/heap"
	"mmdb/internal/simdisk"
)

// Well-known relation IDs for the catalogs themselves.
const (
	RelIDRelationCatalog uint64 = 0
	RelIDIndexCatalog    uint64 = 1
	FirstUserRelID       uint64 = 2
)

// ErrCorrupt reports a malformed descriptor encoding.
var ErrCorrupt = errors.New("catalog: corrupt descriptor")

// PartState records one partition of an object: its number within the
// object's segment and the checkpoint disk track holding its most
// recent checkpoint image (NilTrack if it has never been checkpointed).
type PartState struct {
	Part  addr.PartitionNum
	Track simdisk.TrackLoc
}

// IndexKind selects the index structure.
type IndexKind uint8

// Index kinds.
const (
	KindTTree IndexKind = iota + 1
	KindLinHash
)

func (k IndexKind) String() string {
	switch k {
	case KindTTree:
		return "ttree"
	case KindLinHash:
		return "linhash"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// RelationDesc is a relation catalog entry: the paper's relation
// catalog entry containing the list of partition descriptors that make
// up the relation, each giving the disk location of the partition
// (§2.5).
type RelationDesc struct {
	RelID  uint64
	Name   string
	Seg    addr.SegmentID
	Schema heap.Schema
	Parts  []PartState
}

// IndexDesc is an index catalog entry.
type IndexDesc struct {
	IdxID  uint64
	Name   string
	RelID  uint64
	Seg    addr.SegmentID
	Kind   IndexKind
	Column int // indexed column in the relation's schema
	Order  int // node fan-out
	Header addr.EntityAddr
	Parts  []PartState
}

func putString(dst []byte, s string) []byte {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(s)))
	return append(append(dst, b[:]...), s...)
}

func putU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func putU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func putParts(dst []byte, parts []PartState) []byte {
	dst = putU32(dst, uint32(len(parts)))
	for _, p := range parts {
		dst = putU32(dst, uint32(p.Part))
		dst = putU32(dst, uint32(int32(p.Track)))
	}
	return dst
}

// cursor reads an encoding front to back. It keeps the first short read
// and empties itself, so every later read returns zero: a decoder reads
// its fields straight through and checks once, at done.
type cursor struct {
	buf []byte
	err error
}

// fail records the first corruption and ends the encoding.
func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
	c.buf = nil
}

// take returns the next n bytes, in place, or nil if the encoding is
// short of them.
func (c *cursor) take(n int, what string) []byte {
	if n > len(c.buf) {
		c.fail("%d-byte %s in %d bytes", n, what, len(c.buf))
		return nil
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

func (c *cursor) u8() byte {
	if b := c.take(1, "byte"); b != nil {
		return b[0]
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if b := c.take(4, "u32"); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if b := c.take(8, "u64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// strBytes returns a string's body, in place.
func (c *cursor) strBytes() []byte {
	n := 0
	if b := c.take(2, "string header"); b != nil {
		n = int(binary.LittleEndian.Uint16(b))
	}
	return c.take(n, "string body")
}

func (c *cursor) str() string { return string(c.strBytes()) }

// parts reads a partition list as putParts wrote it: nil when empty,
// matching the encoder's input.
func (c *cursor) parts() []PartState {
	n := c.u32()
	if 8*uint64(n) > uint64(len(c.buf)) {
		c.fail("%d partitions in %d bytes", n, len(c.buf))
	}
	if n == 0 || c.err != nil {
		return nil
	}
	list := c.take(8*int(n), "partition list")
	parts := make([]PartState, n)
	for i := range parts {
		e := list[8*i:]
		parts[i] = PartState{
			Part:  addr.PartitionNum(binary.LittleEndian.Uint32(e)),
			Track: simdisk.TrackLoc(int32(binary.LittleEndian.Uint32(e[4:]))),
		}
	}
	return parts
}

// done reports the first short read, or the bytes left over when the
// whole encoding was not read.
func (c *cursor) done() error {
	if c.err == nil && len(c.buf) != 0 {
		c.fail("%d trailing bytes", len(c.buf))
	}
	return c.err
}

// ErrNoPartition is returned by TrackAt when the descriptor does not
// list the partition.
var ErrNoPartition = errors.New("catalog: partition not in descriptor")

// partList walks past everything an encoded relation (index: index)
// descriptor holds before its partition list and returns the list, which
// is the descriptor's tail: count(4), then part(4) track(4) per entry, as
// putParts wrote it. Nothing but the lengths on the way is decoded.
func partList(raw []byte, index bool) ([]byte, error) {
	c := cursor{buf: raw}
	c.take(8, "id") // RelID / IdxID
	c.strBytes()    // Name
	if index {
		c.take(8+4+1+4+4+8, "index head") // RelID Seg Kind Column Order Header
	} else {
		c.take(4, "segment")
		for n := c.u32(); n > 0 && c.err == nil; n-- {
			c.strBytes()
			c.take(1, "column type")
		}
	}
	list := c.buf
	if n := c.u32(); c.err == nil && uint64(len(c.buf)) != 8*uint64(n) {
		c.fail("%d partitions in %d bytes", n, len(c.buf))
	}
	if c.err != nil {
		return nil, c.err
	}
	return list, nil
}

// TrackAt finds partition part in an encoded relation (index: index)
// descriptor without decoding it, and returns the track stored there.
func TrackAt(raw []byte, index bool, part addr.PartitionNum) (simdisk.TrackLoc, error) {
	list, err := partList(raw, index)
	if err != nil {
		return simdisk.NilTrack, err
	}
	entries := list[4:]
	at := func(i int) addr.PartitionNum {
		return addr.PartitionNum(binary.LittleEndian.Uint32(entries[8*i:]))
	}
	// Partitions are listed as allocated, so unless some were freed the
	// number is the position.
	i, n := int(part), len(entries)/8
	if i >= n || at(i) != part {
		for i = 0; i < n && at(i) != part; i++ {
		}
		if i == n {
			return simdisk.NilTrack, ErrNoPartition
		}
	}
	return simdisk.TrackLoc(int32(binary.LittleEndian.Uint32(entries[8*i+4:]))), nil
}

// Parts returns the partition list of an encoded relation (index: index)
// descriptor, as its decoder would, without decoding the rest.
func Parts(raw []byte, index bool) ([]PartState, error) {
	list, err := partList(raw, index)
	if err != nil {
		return nil, err
	}
	c := cursor{buf: list}
	return c.parts(), nil
}

// WithParts returns a copy of an encoded relation (index: index)
// descriptor with its partition list replaced by parts: the bytes Encode
// gives for the descriptor with that list.
func WithParts(raw []byte, index bool, parts []PartState) ([]byte, error) {
	list, err := partList(raw, index)
	if err != nil {
		return nil, err
	}
	head := raw[:len(raw)-len(list)]
	return putParts(append(make([]byte, 0, len(head)+4+8*len(parts)), head...), parts), nil
}

// Encode serialises the relation descriptor as a catalog entity.
func (d *RelationDesc) Encode() []byte {
	out := putU64(nil, d.RelID)
	out = putString(out, d.Name)
	out = putU32(out, uint32(d.Seg))
	out = putU32(out, uint32(len(d.Schema)))
	for _, c := range d.Schema {
		out = putString(out, c.Name)
		out = append(out, byte(c.Type))
	}
	return putParts(out, d.Parts)
}

// DecodeRelation parses a relation descriptor entity.
func DecodeRelation(buf []byte) (*RelationDesc, error) {
	c := cursor{buf: buf}
	d := &RelationDesc{RelID: c.u64(), Name: c.str(), Seg: addr.SegmentID(c.u32())}
	for n := c.u32(); n > 0 && c.err == nil; n-- {
		d.Schema = append(d.Schema, heap.Column{Name: c.str(), Type: heap.ColType(c.u8())})
	}
	d.Parts = c.parts()
	if err := c.done(); err != nil {
		return nil, err
	}
	return d, nil
}

// Encode serialises the index descriptor as a catalog entity.
func (d *IndexDesc) Encode() []byte {
	out := putU64(nil, d.IdxID)
	out = putString(out, d.Name)
	out = putU64(out, d.RelID)
	out = putU32(out, uint32(d.Seg))
	out = append(out, byte(d.Kind))
	out = putU32(out, uint32(d.Column))
	out = putU32(out, uint32(d.Order))
	out = putU64(out, d.Header.Pack())
	return putParts(out, d.Parts)
}

// DecodeIndex parses an index descriptor entity.
func DecodeIndex(buf []byte) (*IndexDesc, error) {
	c := cursor{buf: buf}
	d := &IndexDesc{
		IdxID:  c.u64(),
		Name:   c.str(),
		RelID:  c.u64(),
		Seg:    addr.SegmentID(c.u32()),
		Kind:   IndexKind(c.u8()),
		Column: int(c.u32()),
		Order:  int(c.u32()),
		Header: addr.Unpack(c.u64()),
		Parts:  c.parts(),
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return d, nil
}

// Root is the well-known stable location: everything recovery needs
// before the catalogs are readable. It lives in stable memory (set as
// the stablemem root "catalog-root") and is periodically written to the
// log disk for media recovery.
type Root struct {
	// RelCatParts / IdxCatParts list the catalog partitions with
	// their checkpoint disk locations.
	RelCatParts []PartState
	IdxCatParts []PartState
	// NextRelID / NextIdxID / NextSeg are allocation high-water marks.
	NextRelID uint64
	NextIdxID uint64
	NextSeg   uint32
}

// Encode serialises the root for its periodic write to the log disk.
func (r *Root) Encode() []byte {
	out := putParts(nil, r.RelCatParts)
	out = putParts(out, r.IdxCatParts)
	out = putU64(out, r.NextRelID)
	out = putU64(out, r.NextIdxID)
	return putU32(out, r.NextSeg)
}

// DecodeRoot parses a root block.
func DecodeRoot(buf []byte) (*Root, error) {
	c := cursor{buf: buf}
	r := &Root{RelCatParts: c.parts(), IdxCatParts: c.parts(), NextRelID: c.u64(), NextIdxID: c.u64(), NextSeg: c.u32()}
	if err := c.done(); err != nil {
		return nil, err
	}
	return r, nil
}

// Clone returns a deep copy of the root (stable memory updates replace
// the whole value to keep crash states consistent).
func (r *Root) Clone() *Root {
	nr := &Root{
		RelCatParts: append([]PartState(nil), r.RelCatParts...),
		IdxCatParts: append([]PartState(nil), r.IdxCatParts...),
		NextRelID:   r.NextRelID,
		NextIdxID:   r.NextIdxID,
		NextSeg:     r.NextSeg,
	}
	return nr
}
