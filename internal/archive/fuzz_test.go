package archive

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sort"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/simdisk"
)

// FuzzScanPartition stores arbitrary bytes as one sealed segment behind
// a page directory with a record at every frame boundary, and reads
// every partition the directory names through ScanPartition. A record
// names the PID and LSN its frame's header claims, and decoy records
// name another LSN and another partition at the same offset. The read
// path must never panic, and must deliver only entries whose frames all
// pass their CRC and whose PID and LSN match their directory record,
// each LSN once and in order. This is the path that reads archive media
// back after arbitrary rot, so "garbage in, bounded skip out" is its
// entire contract.
func FuzzScanPartition(f *testing.F) {
	pid := addr.PartitionID{Segment: 2, Part: 3}
	f.Add([]byte{})
	f.Add(encodeEntry(EntryLogPage, pid, 7, []byte("page-bytes")))
	f.Add(encodeEntry(0xA5, addr.PartitionID{}, 0, []byte("audit"))) // retired kind: damaged
	f.Add(encodeEntry(0x49, addr.PartitionID{}, 0, []byte("index"))) // retired kind: damaged
	multi := encodeEntry(EntryLogPage, pid, 9, bytes.Repeat([]byte{0x42}, 3*frameCap))
	f.Add(multi)
	f.Add(multi[:FrameSize+17]) // torn tail
	flipped := append([]byte(nil), multi...)
	flipped[FrameSize+40] ^= 0x80
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		seg := &segment{b: data, size: int64(len(data)), sealed: true}
		pids := make(map[addr.PartitionID]bool)
		for off := int64(0); off < int64(len(data)); off += FrameSize {
			p, lsn := claimedIdentity(data[off:])
			other := addr.PartitionID{Segment: p.Segment, Part: p.Part ^ 1}
			seg.index = append(seg.index,
				indexRec{pid: p, lsn: lsn, off: off},
				indexRec{pid: p, lsn: lsn + 1, off: off},
				indexRec{pid: other, lsn: lsn, off: off})
			pids[p], pids[other] = true, true
		}
		sort.Slice(seg.index, func(i, j int) bool { return recLess(seg.index[i], seg.index[j]) })
		st := &Store{segBytes: DefaultSegmentBytes, segs: []*segment{seg}}

		for p := range pids {
			last, any := simdisk.LSN(0), false
			if err := st.ScanPartition(p, func(lsn simdisk.LSN, page []byte) error {
				if any && lsn <= last {
					t.Fatalf("%v: lsn %d delivered after %d", p, lsn, last)
				}
				last, any = lsn, true
				if !storedEntry(data, seg.index, p, lsn, page) {
					t.Fatalf("%v lsn %d: delivered %d bytes that no checked entry under a matching record holds", p, lsn, len(page))
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// claimedIdentity reads the PID and LSN an entry header would hold if
// the frame at the start of b began an entry.
func claimedIdentity(b []byte) (addr.PartitionID, simdisk.LSN) {
	var h [entryHdrSize]byte
	if len(b) > frameHdrSize {
		copy(h[:], b[frameHdrSize:])
	}
	return addr.PartitionID{
		Segment: addr.SegmentID(binary.LittleEndian.Uint32(h[1:])),
		Part:    addr.PartitionNum(binary.LittleEndian.Uint32(h[5:])),
	}, simdisk.LSN(binary.LittleEndian.Uint64(h[9:]))
}

// storedEntry reports whether some directory record names (pid, lsn) at
// an offset where data holds a log-page entry for (pid, lsn) carrying
// page, every frame of it with a good CRC. It decodes the frames itself
// rather than through the store.
func storedEntry(data []byte, index []indexRec, pid addr.PartitionID, lsn simdisk.LSN, page []byte) bool {
	for _, r := range index {
		if r.pid != pid || r.lsn != lsn {
			continue
		}
		var payload []byte
		for off := int(r.off); off+FrameSize <= len(data); off += FrameSize {
			f := data[off : off+FrameSize]
			body := f[:FrameSize-frameTrailerSize]
			plen := int(binary.LittleEndian.Uint16(f[3:]))
			if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(f[FrameSize-frameTrailerSize:]) || plen > frameCap {
				break
			}
			payload = append(payload, f[frameHdrSize:frameHdrSize+plen]...)
			if f[2]&flagLast == 0 {
				continue
			}
			want := []byte{EntryLogPage}
			want = binary.LittleEndian.AppendUint32(want, uint32(pid.Segment))
			want = binary.LittleEndian.AppendUint32(want, uint32(pid.Part))
			want = binary.LittleEndian.AppendUint64(want, uint64(lsn))
			want = binary.LittleEndian.AppendUint32(want, uint32(len(page)))
			if bytes.Equal(payload, append(want, page...)) {
				return true
			}
			break
		}
	}
	return false
}
