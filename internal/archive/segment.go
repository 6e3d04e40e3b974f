// Segment format of the append-only archive tier.
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
// The one kind is EntryLogPage, a rolled wal page. Any other kind byte
// is a damaged entry, skipped on read. A segment stores log pages only:
// its page directory lives beside it in the store, never in its bytes.
package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

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

// EntryLogPage is the kind byte, the first byte of every entry payload.
const EntryLogPage byte = 0x01

const entryHdrSize = 1 + 4 + 4 + 8 + 4 // kind + segment + part + lsn + dlen

// ErrBadFrame reports a frame that fails structural validation: wrong
// magic, impossible payload length, a checksum mismatch, or an entry
// whose frame chain is broken. Readers count and skip past it.
var ErrBadFrame = errors.New("archive: bad segment frame")

// Entry is one decoded archive entry.
type Entry struct {
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
	if dlen := int(binary.LittleEndian.Uint32(payload[17:])); dlen != len(payload)-entryHdrSize {
		return Entry{}, fmt.Errorf("%w: entry data length %d in %d-byte payload",
			ErrBadFrame, dlen, len(payload))
	}
	if payload[0] != EntryLogPage {
		return Entry{}, fmt.Errorf("%w: unknown entry kind 0x%02x", ErrBadFrame, payload[0])
	}
	return Entry{
		PID: addr.PartitionID{
			Segment: addr.SegmentID(binary.LittleEndian.Uint32(payload[1:])),
			Part:    addr.PartitionNum(binary.LittleEndian.Uint32(payload[5:])),
		},
		LSN:  simdisk.LSN(binary.LittleEndian.Uint64(payload[9:])),
		Data: payload[entryHdrSize:],
		Off:  off,
	}, nil
}
