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

func getString(buf []byte) (string, []byte, error) {
	if len(buf) < 2 {
		return "", nil, fmt.Errorf("%w: string header", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint16(buf))
	if len(buf) < 2+n {
		return "", nil, fmt.Errorf("%w: string body", ErrCorrupt)
	}
	return string(buf[2 : 2+n]), buf[2+n:], nil
}

func putU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func getU32(buf []byte) (uint32, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("%w: u32", ErrCorrupt)
	}
	return binary.LittleEndian.Uint32(buf), buf[4:], nil
}

func putU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func getU64(buf []byte) (uint64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("%w: u64", ErrCorrupt)
	}
	return binary.LittleEndian.Uint64(buf), buf[8:], nil
}

func putParts(dst []byte, parts []PartState) []byte {
	dst = putU32(dst, uint32(len(parts)))
	for _, p := range parts {
		dst = putU32(dst, uint32(p.Part))
		dst = putU32(dst, uint32(int32(p.Track)))
	}
	return dst
}

func getParts(buf []byte) ([]PartState, []byte, error) {
	n, buf, err := getU32(buf)
	if err != nil {
		return nil, nil, err
	}
	var parts []PartState // nil for an empty list, matching the encoder's input
	for i := uint32(0); i < n; i++ {
		var p, tr uint32
		if p, buf, err = getU32(buf); err != nil {
			return nil, nil, err
		}
		if tr, buf, err = getU32(buf); err != nil {
			return nil, nil, err
		}
		parts = append(parts, PartState{Part: addr.PartitionNum(p), Track: simdisk.TrackLoc(int32(tr))})
	}
	return parts, buf, nil
}

// ErrNoPartition is returned by TrackAt when the descriptor does not
// list the partition.
var ErrNoPartition = errors.New("catalog: partition not in descriptor")

// skip drops n bytes of a field that is not read.
func skip(buf []byte, n int) ([]byte, error) {
	if len(buf) < n {
		return nil, fmt.Errorf("%w: %d-byte field in %d bytes", ErrCorrupt, n, len(buf))
	}
	return buf[n:], nil
}

func skipString(buf []byte) ([]byte, error) {
	if len(buf) < 2 {
		return nil, fmt.Errorf("%w: string header", ErrCorrupt)
	}
	return skip(buf[2:], int(binary.LittleEndian.Uint16(buf)))
}

// partList walks past everything an encoded relation (index: index)
// descriptor holds before its partition list and returns the list, which
// is the descriptor's tail: count(4), then part(4) track(4) per entry, as
// putParts wrote it. Nothing but the lengths on the way is decoded.
func partList(raw []byte, index bool) ([]byte, error) {
	buf, err := skip(raw, 8) // RelID / IdxID
	if err == nil {
		buf, err = skipString(buf) // Name
	}
	if err != nil {
		return nil, err
	}
	if index {
		// RelID(8) Seg(4) Kind(1) Column(4) Order(4) Header(8)
		if buf, err = skip(buf, 8+4+1+4+4+8); err != nil {
			return nil, err
		}
	} else {
		if buf, err = skip(buf, 4); err != nil { // Seg
			return nil, err
		}
		var ncols uint32
		if ncols, buf, err = getU32(buf); err != nil {
			return nil, err
		}
		for ; ncols > 0; ncols-- {
			if buf, err = skipString(buf); err == nil {
				buf, err = skip(buf, 1) // column type
			}
			if err != nil {
				return nil, err
			}
		}
	}
	n, rest, err := getU32(buf)
	if err != nil {
		return nil, err
	}
	if uint64(len(rest)) != 8*uint64(n) {
		return nil, fmt.Errorf("%w: %d partitions in %d bytes", ErrCorrupt, n, len(rest))
	}
	return buf, nil
}

// TrackAt finds partition part in an encoded relation (index: index)
// descriptor without decoding it, and returns the track stored there and
// the offset within raw of the 4 bytes (little-endian int32) that hold
// it: overwriting them is the same as re-encoding with the new track.
func TrackAt(raw []byte, index bool, part addr.PartitionNum) (off int, track simdisk.TrackLoc, err error) {
	list, err := partList(raw, index)
	if err != nil {
		return 0, simdisk.NilTrack, err
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
			return 0, simdisk.NilTrack, ErrNoPartition
		}
	}
	word := entries[8*i+4:]
	return len(raw) - len(word), simdisk.TrackLoc(int32(binary.LittleEndian.Uint32(word))), nil
}

// Parts returns the partition list of an encoded relation (index: index)
// descriptor, as its decoder would, without decoding the rest.
func Parts(raw []byte, index bool) ([]PartState, error) {
	list, err := partList(raw, index)
	if err != nil {
		return nil, err
	}
	parts, _, err := getParts(list)
	return parts, err
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
	d := &RelationDesc{}
	var err error
	if d.RelID, buf, err = getU64(buf); err != nil {
		return nil, err
	}
	if d.Name, buf, err = getString(buf); err != nil {
		return nil, err
	}
	var seg, ncols uint32
	if seg, buf, err = getU32(buf); err != nil {
		return nil, err
	}
	d.Seg = addr.SegmentID(seg)
	if ncols, buf, err = getU32(buf); err != nil {
		return nil, err
	}
	for i := uint32(0); i < ncols; i++ {
		var name string
		if name, buf, err = getString(buf); err != nil {
			return nil, err
		}
		if len(buf) < 1 {
			return nil, fmt.Errorf("%w: column type", ErrCorrupt)
		}
		d.Schema = append(d.Schema, heap.Column{Name: name, Type: heap.ColType(buf[0])})
		buf = buf[1:]
	}
	if d.Parts, buf, err = getParts(buf); err != nil {
		return nil, err
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(buf))
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
	d := &IndexDesc{}
	var err error
	if d.IdxID, buf, err = getU64(buf); err != nil {
		return nil, err
	}
	if d.Name, buf, err = getString(buf); err != nil {
		return nil, err
	}
	if d.RelID, buf, err = getU64(buf); err != nil {
		return nil, err
	}
	var seg uint32
	if seg, buf, err = getU32(buf); err != nil {
		return nil, err
	}
	d.Seg = addr.SegmentID(seg)
	if len(buf) < 1 {
		return nil, fmt.Errorf("%w: index kind", ErrCorrupt)
	}
	d.Kind = IndexKind(buf[0])
	buf = buf[1:]
	var col, order uint32
	if col, buf, err = getU32(buf); err != nil {
		return nil, err
	}
	d.Column = int(col)
	if order, buf, err = getU32(buf); err != nil {
		return nil, err
	}
	d.Order = int(order)
	var hdr uint64
	if hdr, buf, err = getU64(buf); err != nil {
		return nil, err
	}
	d.Header = addr.Unpack(hdr)
	if d.Parts, buf, err = getParts(buf); err != nil {
		return nil, err
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(buf))
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
	r := &Root{}
	var err error
	if r.RelCatParts, buf, err = getParts(buf); err != nil {
		return nil, err
	}
	if r.IdxCatParts, buf, err = getParts(buf); err != nil {
		return nil, err
	}
	if r.NextRelID, buf, err = getU64(buf); err != nil {
		return nil, err
	}
	if r.NextIdxID, buf, err = getU64(buf); err != nil {
		return nil, err
	}
	var seg uint32
	if seg, buf, err = getU32(buf); err != nil {
		return nil, err
	}
	r.NextSeg = seg
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in root", ErrCorrupt, len(buf))
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
