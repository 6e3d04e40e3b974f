package archive

import (
	"bytes"
	"testing"

	"mmdb/internal/addr"
)

// FuzzDecodeSegment drives the segment parser with arbitrary bytes: it
// must never panic, never report a clean prefix beyond the input or off
// a frame boundary, and every entry it does return must satisfy the
// format's own invariants (a log page, data within the input). This is
// the parser that reads archive media back after arbitrary rot, so
// "garbage in, bounded skip out" is its entire contract.
func FuzzDecodeSegment(f *testing.F) {
	pid := addr.PartitionID{Segment: 2, Part: 3}
	f.Add([]byte{})
	f.Add(encodeEntry(EntryLogPage, pid, 7, []byte("page-bytes")))
	f.Add(encodeEntry(0xA5, addr.PartitionID{}, 0, []byte("audit"))) // retired kind: damaged
	f.Add(retiredIndexEntry([]indexRec{{pid: pid, lsn: 7, off: 0}})) // retired kind: damaged
	multi := encodeEntry(EntryLogPage, pid, 9, bytes.Repeat([]byte{0x42}, 3*frameCap))
	f.Add(multi)
	f.Add(multi[:FrameSize+17]) // torn tail
	flipped := append([]byte(nil), multi...)
	flipped[FrameSize+40] ^= 0x80
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, clean, damaged, _ := DecodeSegment(data)
		if clean < 0 || clean > len(data) {
			t.Fatalf("clean = %d outside [0, %d]", clean, len(data))
		}
		if clean%FrameSize != 0 {
			t.Fatalf("clean = %d not frame-aligned", clean)
		}
		if damaged < 0 || damaged > len(data)/FrameSize+1 {
			t.Fatalf("damaged = %d for %d frames", damaged, len(data)/FrameSize)
		}
		for _, e := range entries {
			if e.Off < 0 || e.Off >= int64(len(data)) {
				t.Fatalf("entry offset %d outside input", e.Off)
			}
			if data[e.Off+frameHdrSize] != EntryLogPage {
				t.Fatalf("entry at offset %d surfaced with kind 0x%02x", e.Off, data[e.Off+frameHdrSize])
			}
			if len(e.Data) > len(data) {
				t.Fatalf("entry data longer than input")
			}
			// Round-trip: a surfaced entry re-encodes to frames that
			// decode back to the same entry.
			re := encodeEntry(EntryLogPage, e.PID, e.LSN, e.Data)
			back, _, dmg, err := DecodeSegment(re)
			if err != nil || dmg != 0 || len(back) != 1 {
				t.Fatalf("re-encode of surfaced entry failed: %v, dmg=%d, n=%d", err, dmg, len(back))
			}
			if back[0].PID != e.PID || back[0].LSN != e.LSN || !bytes.Equal(back[0].Data, e.Data) {
				t.Fatal("re-encoded entry round-trip mismatch")
			}
		}
	})
}
