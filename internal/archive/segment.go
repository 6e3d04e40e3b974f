// Segment file format of the append-only archive tier.
//
// A segment is a sequence of fixed-size frames. Each frame is
// self-delimiting and individually checksummed, so a reader can always
// resynchronise on the next frame boundary after damage — rot never
// silently swallows the rest of a segment, it costs exactly the frames
// (and the entries they carried) that were actually hit:
//
//	frame := magic(2) | flags(1) | plen(2 LE) | payload | zero pad | crc32(4)
//
// The CRC is IEEE, computed over the whole frame except the trailer, so
// a flip anywhere — header, payload, or padding — is detected. Entries
// larger than one frame's capacity span consecutive frames; flags mark
// the first and last frame of each entry.
//
// The entry payload carries its own header so every archived log page
// is self-describing — which partition it belongs to and which log-disk
// LSN it was rolled from (wal pages do not record their LSN):
//
//	entry := kind(1) | segment(4 LE) | part(4 LE) | lsn(8 LE) | dlen(4 LE) | data
//
// Kinds: EntryLogPage is a rolled wal page, EntryIndex the per-segment
// index appended when a segment is sealed; any other kind byte is a
// damaged entry. The index entry's data is the segment's page directory
// sorted by (segment, part, lsn), one record per archived page,
// enabling binary-search lookup of one partition's history without
// replaying the whole segment:
//
//	index := count(4 LE) then count × { segment(4) | part(4) | lsn(8) | off(8) }
package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"mmdb/internal/addr"
	"mmdb/internal/simdisk"
)

// FrameSize is the fixed size of every segment frame.
const FrameSize = 256

const (
	frameMagic0 = 0xAC
	frameMagic1 = 0x1F

	frameHdrSize     = 5 // magic(2) + flags(1) + plen(2)
	frameTrailerSize = 4 // crc32
	frameCap         = FrameSize - frameHdrSize - frameTrailerSize

	flagFirst = 0x01
	flagLast  = 0x02
)

// Entry kinds, the first byte of every entry payload.
const (
	EntryLogPage byte = 0x01
	EntryIndex   byte = 0x49
)

const entryHdrSize = 1 + 4 + 4 + 8 + 4 // kind + segment + part + lsn + dlen

// ErrBadFrame reports a frame that fails structural validation: wrong
// magic, impossible payload length, a checksum mismatch, or an entry
// whose frame chain is broken. Readers count and skip past it.
var ErrBadFrame = errors.New("archive: bad segment frame")

// Entry is one decoded archive entry.
type Entry struct {
	Kind byte
	PID  addr.PartitionID
	LSN  simdisk.LSN
	Data []byte
	Off  int64 // byte offset of the entry's first frame within its segment
}

// encodeEntry renders one entry as a run of frames.
func encodeEntry(kind byte, pid addr.PartitionID, lsn simdisk.LSN, data []byte) []byte {
	payload := make([]byte, entryHdrSize+len(data))
	payload[0] = kind
	binary.LittleEndian.PutUint32(payload[1:], uint32(pid.Segment))
	binary.LittleEndian.PutUint32(payload[5:], uint32(pid.Part))
	binary.LittleEndian.PutUint64(payload[9:], uint64(lsn))
	binary.LittleEndian.PutUint32(payload[17:], uint32(len(data)))
	copy(payload[entryHdrSize:], data)

	nframes := (len(payload) + frameCap - 1) / frameCap
	if nframes == 0 {
		nframes = 1
	}
	out := make([]byte, nframes*FrameSize)
	for i := 0; i < nframes; i++ {
		chunk := payload[i*frameCap:]
		if len(chunk) > frameCap {
			chunk = chunk[:frameCap]
		}
		f := out[i*FrameSize : (i+1)*FrameSize]
		f[0], f[1] = frameMagic0, frameMagic1
		var flags byte
		if i == 0 {
			flags |= flagFirst
		}
		if i == nframes-1 {
			flags |= flagLast
		}
		f[2] = flags
		binary.LittleEndian.PutUint16(f[3:], uint16(len(chunk)))
		copy(f[frameHdrSize:], chunk)
		crc := crc32.ChecksumIEEE(f[:FrameSize-frameTrailerSize])
		binary.LittleEndian.PutUint32(f[FrameSize-frameTrailerSize:], crc)
	}
	return out
}

// decodeFrame validates one frame and returns its flags and payload
// (aliasing f).
func decodeFrame(f []byte) (flags byte, payload []byte, err error) {
	if f[0] != frameMagic0 || f[1] != frameMagic1 {
		return 0, nil, fmt.Errorf("%w: magic %02x%02x", ErrBadFrame, f[0], f[1])
	}
	plen := int(binary.LittleEndian.Uint16(f[3:]))
	if plen == 0 || plen > frameCap {
		return 0, nil, fmt.Errorf("%w: payload length %d", ErrBadFrame, plen)
	}
	want := binary.LittleEndian.Uint32(f[FrameSize-frameTrailerSize:])
	if got := crc32.ChecksumIEEE(f[:FrameSize-frameTrailerSize]); got != want {
		return 0, nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrBadFrame, got, want)
	}
	return f[2], f[frameHdrSize : frameHdrSize+plen], nil
}

// parseEntry validates a reassembled entry payload.
func parseEntry(payload []byte, off int64) (Entry, error) {
	if len(payload) < entryHdrSize {
		return Entry{}, fmt.Errorf("%w: %d-byte entry payload", ErrBadFrame, len(payload))
	}
	e := Entry{
		Kind: payload[0],
		PID: addr.PartitionID{
			Segment: addr.SegmentID(binary.LittleEndian.Uint32(payload[1:])),
			Part:    addr.PartitionNum(binary.LittleEndian.Uint32(payload[5:])),
		},
		LSN: simdisk.LSN(binary.LittleEndian.Uint64(payload[9:])),
		Off: off,
	}
	dlen := int(binary.LittleEndian.Uint32(payload[17:]))
	if dlen != len(payload)-entryHdrSize {
		return Entry{}, fmt.Errorf("%w: entry data length %d in %d-byte payload",
			ErrBadFrame, dlen, len(payload))
	}
	switch e.Kind {
	case EntryLogPage, EntryIndex:
	default:
		return Entry{}, fmt.Errorf("%w: unknown entry kind 0x%02x", ErrBadFrame, e.Kind)
	}
	e.Data = payload[entryHdrSize:]
	return e, nil
}

// DecodeSegment parses a segment's bytes. Damaged frames are skipped
// individually (frames are fixed-size, so the reader resynchronises on
// the next boundary) and the entries they belonged to are dropped;
// damaged counts how many frames were lost that way. A trailing
// partial frame — the torn tail of a crashed append — is ignored, and
// clean reports the frame-aligned prefix length up to which the
// segment decoded, i.e. where appends may safely resume.
func DecodeSegment(data []byte) (entries []Entry, clean int, damaged int, err error) {
	var payload []byte
	var entryStart int64
	open := false
	var firstErr error
	note := func(e error) {
		damaged++
		if firstErr == nil {
			firstErr = e
		}
	}
	for pos := 0; pos+FrameSize <= len(data); pos += FrameSize {
		flags, chunk, ferr := decodeFrame(data[pos : pos+FrameSize])
		if ferr != nil {
			note(ferr)
			open, payload = false, nil
			clean = pos + FrameSize
			continue
		}
		if flags&flagFirst != 0 {
			if open {
				note(fmt.Errorf("%w: entry restarted mid-chain at %d", ErrBadFrame, pos))
			}
			open, payload, entryStart = true, nil, int64(pos)
		} else if !open {
			note(fmt.Errorf("%w: continuation frame with no open entry at %d", ErrBadFrame, pos))
			clean = pos + FrameSize
			continue
		}
		payload = append(payload, chunk...)
		if flags&flagLast == 0 {
			continue
		}
		open = false
		e, perr := parseEntry(payload, entryStart)
		payload = nil
		if perr != nil {
			note(perr)
			clean = pos + FrameSize
			continue
		}
		entries = append(entries, e)
		clean = pos + FrameSize
	}
	if open {
		// Entry never closed: the torn tail of a crashed multi-frame
		// append. Resume appends at its first frame.
		clean = int(entryStart)
	}
	return entries, clean, damaged, firstErr
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

// encodeIndex renders a segment's page directory, sorted by (PID, LSN).
func encodeIndex(recs []indexRec) []byte {
	sorted := append([]indexRec(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return recLess(sorted[i], sorted[j]) })
	out := make([]byte, 4+len(sorted)*24)
	binary.LittleEndian.PutUint32(out, uint32(len(sorted)))
	for i, r := range sorted {
		p := out[4+i*24:]
		binary.LittleEndian.PutUint32(p, uint32(r.pid.Segment))
		binary.LittleEndian.PutUint32(p[4:], uint32(r.pid.Part))
		binary.LittleEndian.PutUint64(p[8:], uint64(r.lsn))
		binary.LittleEndian.PutUint64(p[16:], uint64(r.off))
	}
	return out
}

// DecodeIndex parses an EntryIndex data block.
func DecodeIndex(data []byte) ([]indexRec, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: %d-byte index", ErrBadFrame, len(data))
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n*24 != len(data)-4 {
		return nil, fmt.Errorf("%w: index count %d in %d bytes", ErrBadFrame, n, len(data))
	}
	recs := make([]indexRec, n)
	for i := range recs {
		p := data[4+i*24:]
		recs[i] = indexRec{
			pid: addr.PartitionID{
				Segment: addr.SegmentID(binary.LittleEndian.Uint32(p)),
				Part:    addr.PartitionNum(binary.LittleEndian.Uint32(p[4:])),
			},
			lsn: simdisk.LSN(binary.LittleEndian.Uint64(p[8:])),
			off: int64(binary.LittleEndian.Uint64(p[16:])),
		}
	}
	return recs, nil
}
