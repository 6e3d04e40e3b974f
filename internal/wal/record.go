// Package wal defines the REDO log record and log page formats of
// §2.3.2. Every log record corresponds to exactly one entity in exactly
// one partition — a relation tuple or an index structure component (a
// T-Tree node or Modified Linear Hash node) — and carries its TAG,
// Transaction Id and Operation. §2.3.2's fourth part, the Bin Index, is
// not written: the sorter finds a record's bin by its partition address.
//
// Relation records are operation records for a partition (the string
// space is heap-managed, not two-phase locked), and index records
// specify partition-specific REDO operations on index components; a
// single index update may produce several records, one per updated
// component.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"mmdb/internal/addr"
)

// Tag identifies the type and operation of a log record.
type Tag uint8

// Log record tags. Relation and index operations are physically alike
// (both mutate one entity in one partition) but carry distinct tags, as
// in the paper, so that replay and auditing can distinguish them.
const (
	TagInvalid Tag = iota

	// Relation tuple operations.
	TagRelInsert // insert tuple bytes at slot
	TagRelDelete // delete tuple at slot
	TagRelUpdate // replace tuple bytes at slot
	TagRelWrite  // overwrite bytes within tuple at slot+offset

	// Index component operations (T-Tree nodes, hash nodes).
	TagIdxInsert // insert node bytes at slot
	TagIdxDelete // delete node at slot
	TagIdxUpdate // replace node bytes at slot
	TagIdxWrite  // overwrite bytes within node at slot+offset

	// Partition lifecycle.
	TagPartAlloc // partition came into existence (empty image)
	TagPartFree  // partition discarded

	tagMax
)

var tagNames = [...]string{
	TagInvalid:   "invalid",
	TagRelInsert: "rel-insert",
	TagRelDelete: "rel-delete",
	TagRelUpdate: "rel-update",
	TagRelWrite:  "rel-write",
	TagIdxInsert: "idx-insert",
	TagIdxDelete: "idx-delete",
	TagIdxUpdate: "idx-update",
	TagIdxWrite:  "idx-write",
	TagPartAlloc: "part-alloc",
	TagPartFree:  "part-free",
}

func (t Tag) String() string {
	if int(t) < len(tagNames) && tagNames[t] != "" {
		return tagNames[t]
	}
	return fmt.Sprintf("tag(%d)", uint8(t))
}

// Valid reports whether t is a defined record tag.
func (t Tag) Valid() bool { return t > TagInvalid && t < tagMax }

// ErrCorrupt reports a malformed record or page encoding.
var ErrCorrupt = errors.New("wal: corrupt encoding")

// ErrChecksum is the ErrCorrupt sub-case where the bytes parse but the
// CRC trailer disagrees: rot, not truncation. The bin-tail check after
// a crash uses the distinction — a crash-torn append is expected and
// its records re-sort from the SLB, while a checksum mismatch means
// damaged content that must be counted as quarantined.
var ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)

// Record is one REDO log record.
type Record struct {
	Tag  Tag
	Txn  uint64 // transaction identifier
	PID  addr.PartitionID
	Slot addr.Slot
	Off  uint16 // intra-entity offset, for TagRelWrite / TagIdxWrite
	Data []byte // operation payload
}

// Entity returns the full address of the entity the record refers to.
func (r *Record) Entity() addr.EntityAddr {
	return addr.EntityAddr{Segment: r.PID.Segment, Part: r.PID.Part, Slot: r.Slot}
}

// recordCRCSize is the per-record checksum trailer: CRC32-IEEE over the
// record's full encoding (tag through payload). Stable memory and log
// sectors can rot without losing device ECC, and a bit-flipped varint
// would otherwise decode into a *different valid record* — the trailer
// turns silent misapplication into a typed ErrCorrupt that replay
// quarantines.
const recordCRCSize = 4

// Records use a compact variable-length encoding — the paper notes
// that typical log records are only 8 to 24 bytes, and that redundant
// address information is condensed; small identifiers cost one byte
// each. Layout: tag(1), then uvarints for txn, segment, partition, slot,
// offset, and payload length, followed by the payload and a CRC32
// trailer over all of the preceding bytes.
//
// EncodedSize returns the number of bytes Encode will produce.
func (r *Record) EncodedSize() int {
	n := 1
	n += uvarintLen(r.Txn)
	n += uvarintLen(uint64(r.PID.Segment))
	n += uvarintLen(uint64(r.PID.Part))
	n += uvarintLen(uint64(r.Slot))
	n += uvarintLen(uint64(r.Off))
	n += uvarintLen(uint64(len(r.Data)))
	return n + len(r.Data) + recordCRCSize
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Encode appends the record's encoding to dst and returns the result.
// It grows dst at most once, to the record's EncodedSize.
func (r *Record) Encode(dst []byte) []byte {
	dst = slices.Grow(dst, r.EncodedSize())
	start := len(dst)
	dst = append(dst, byte(r.Tag))
	dst = binary.AppendUvarint(dst, r.Txn)
	dst = binary.AppendUvarint(dst, uint64(r.PID.Segment))
	dst = binary.AppendUvarint(dst, uint64(r.PID.Part))
	dst = binary.AppendUvarint(dst, uint64(r.Slot))
	dst = binary.AppendUvarint(dst, uint64(r.Off))
	dst = binary.AppendUvarint(dst, uint64(len(r.Data)))
	dst = append(dst, r.Data...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// Decode parses one record from the front of buf, returning the record
// and the number of bytes consumed. The record's Data aliases buf.
func Decode(buf []byte) (Record, int, error) {
	if len(buf) < 1 {
		return Record{}, 0, fmt.Errorf("%w: empty record", ErrCorrupt)
	}
	var r Record
	r.Tag = Tag(buf[0])
	if !r.Tag.Valid() {
		return Record{}, 0, fmt.Errorf("%w: bad tag %d", ErrCorrupt, buf[0])
	}
	// The six header uvarints: txn, segment, partition, slot, offset,
	// payload length.
	var hdr [6]uint64
	pos := 1
	for i := range hdr {
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return Record{}, 0, fmt.Errorf("%w: truncated record header", ErrCorrupt)
		}
		hdr[i] = v
		pos += n
	}
	r.Txn = hdr[0]
	r.PID.Segment = addr.SegmentID(hdr[1])
	r.PID.Part = addr.PartitionNum(hdr[2])
	r.Slot = addr.Slot(hdr[3])
	r.Off = uint16(hdr[4])
	if v := hdr[5]; v > uint64(len(buf)-pos) {
		return Record{}, 0, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrCorrupt, len(buf)-pos, v)
	}
	dlen := int(hdr[5])
	if dlen > 0 {
		r.Data = buf[pos : pos+dlen : pos+dlen]
	}
	pos += dlen
	if len(buf)-pos < recordCRCSize {
		return Record{}, 0, fmt.Errorf("%w: truncated record checksum", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(buf[pos:])
	if got := crc32.ChecksumIEEE(buf[:pos]); got != want {
		return Record{}, 0, fmt.Errorf("%w: record (got %08x, want %08x)", ErrChecksum, got, want)
	}
	return r, pos + recordCRCSize, nil
}

// Walker steps through a concatenation of records — an SLB block, a
// log page's record area, a bin's current page buffer — decoding each
// record once and allocating nothing: for w := Walk(buf); w.Next(); {
// use(w.Record()) }. It stops for good at the first record that fails
// to decode (boundaries past damage cannot be resynchronised in a
// varint stream), so Clean is where every caller cuts, and Err tells
// rot (ErrChecksum) from truncation.
type Walker struct {
	buf   []byte
	start int // where the record Next just decoded begins
	clean int
	err   error
	rec   Record
}

// Walk returns a Walker positioned before the first record of buf.
func Walk(buf []byte) Walker { return Walker{buf: buf} }

// Next decodes the next record, reporting false at the end of the
// buffer or at the first undecodable record.
func (w *Walker) Next() bool {
	if w.err != nil || w.clean == len(w.buf) {
		return false
	}
	var n int
	w.start = w.clean
	w.rec, n, w.err = Decode(w.buf[w.clean:])
	w.clean += n
	return w.err == nil
}

// Record returns the record Next just decoded; the following Next
// overwrites it, and its Data aliases the walked buffer.
func (w *Walker) Record() *Record { return &w.rec }

// Bytes returns the encoding of the record Next just decoded, CRC
// trailer included; it aliases the walked buffer.
func (w *Walker) Bytes() []byte { return w.buf[w.start:w.clean] }

// Clean returns the length of the prefix walked so far, whole records
// all; Err the decode error that stopped the walk, if one did.
func (w *Walker) Clean() int { return w.clean }
func (w *Walker) Err() error { return w.err }

// DecodeAll parses a concatenation of records, as stored in SLB blocks
// and log pages, into a slice; nil and the error if any record fails.
func DecodeAll(buf []byte) ([]Record, error) {
	var out []Record
	w := Walk(buf)
	for w.Next() {
		out = append(out, w.rec)
	}
	if w.err != nil {
		return nil, w.err
	}
	return out, nil
}
