package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"mmdb/internal/addr"
)

// Page is one partition-bin log page as flushed from the Stable Log
// Tail to the log disk (§2.3.3, §2.3.4): the Partition Address, attached
// to every page as a consistency check during recovery and to let
// archive recovery find a partition's pages, and the concatenated record
// encodings. §2.3.3 also chains a partition's pages and embeds a page
// directory in every Nth one; here the bin's page list in the Stable Log
// Tail is the whole directory, so no page carries either.
type Page struct {
	PID     addr.PartitionID
	Records []byte // concatenated record encodings
}

// pageHeaderSize is the fixed page header: seg(4) part(4) recLen(4).
const pageHeaderSize = 4 + 4 + 4

// pageCRCSize is the page checksum trailer: CRC32-IEEE over the header
// and record bytes. The simulated disks model ECC at sector granularity
// (bad-sector errors), but a mutated write keeps valid ECC — the trailer
// is what lets a reader distinguish a well-formed page from bit rot and
// fall back to the duplexed mirror copy (§2.2).
const pageCRCSize = 4

// EncodedSize returns the byte size of the encoded page.
func (p *Page) EncodedSize() int {
	return pageHeaderSize + len(p.Records) + pageCRCSize
}

// Encode serialises the page for the log disk.
func (p *Page) Encode() []byte {
	out := make([]byte, pageHeaderSize, p.EncodedSize())
	binary.LittleEndian.PutUint32(out[0:], uint32(p.PID.Segment))
	binary.LittleEndian.PutUint32(out[4:], uint32(p.PID.Part))
	binary.LittleEndian.PutUint32(out[8:], uint32(len(p.Records)))
	out = append(out, p.Records...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// DecodePage parses a log page read back from the log disk or tape,
// verifying the checksum trailer. All failures are typed ErrCorrupt.
func DecodePage(buf []byte) (*Page, error) {
	if len(buf) < pageHeaderSize+pageCRCSize {
		return nil, fmt.Errorf("%w: truncated page header", ErrCorrupt)
	}
	p := &Page{}
	p.PID.Segment = addr.SegmentID(binary.LittleEndian.Uint32(buf[0:]))
	p.PID.Part = addr.PartitionNum(binary.LittleEndian.Uint32(buf[4:]))
	recLen := uint64(binary.LittleEndian.Uint32(buf[8:]))
	if recLen > uint64(len(buf)-pageHeaderSize-pageCRCSize) {
		return nil, fmt.Errorf("%w: page body %d bytes, want %d", ErrCorrupt, len(buf)-pageHeaderSize-pageCRCSize, recLen)
	}
	end := pageHeaderSize + int(recLen)
	want := binary.LittleEndian.Uint32(buf[end:])
	if got := crc32.ChecksumIEEE(buf[:end]); got != want {
		return nil, fmt.Errorf("%w: page (got %08x, want %08x)", ErrChecksum, got, want)
	}
	p.Records = buf[pageHeaderSize:end:end]
	return p, nil
}

// CheckPID verifies the page's partition-address consistency check.
func (p *Page) CheckPID(want addr.PartitionID) error {
	if p.PID != want {
		return fmt.Errorf("%w: page belongs to %v, want %v", ErrCorrupt, p.PID, want)
	}
	return nil
}
