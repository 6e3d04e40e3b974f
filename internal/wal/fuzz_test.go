package wal

import (
	"bytes"
	"testing"

	"mmdb/internal/addr"
)

// fuzzSeedRecords is the valid-record seed set: one of each shape the
// replay path meets in practice (tiny control records, payload-bearing
// updates, payload-free records, multi-byte varint fields).
func fuzzSeedRecords() [][]byte {
	recs := []Record{
		{Tag: TagRelInsert, Txn: 1,
			PID:  addr.PartitionID{Segment: 2, Part: 0},
			Slot: 1, Data: []byte("hello")},
		{Tag: TagRelWrite, Txn: 7777,
			PID:  addr.PartitionID{Segment: 31, Part: 129},
			Slot: 4097, Off: 513, Data: bytes.Repeat([]byte{0xAB}, 40)},
		{Tag: TagPartAlloc, Txn: 1,
			PID: addr.PartitionID{Segment: 5, Part: 3}},
		{Tag: TagIdxDelete, Txn: 900000,
			PID:  addr.PartitionID{Segment: 1, Part: 2},
			Slot: 15},
	}
	var out [][]byte
	for i := range recs {
		out = append(out, recs[i].Encode(nil))
	}
	// A clean concatenation, and one with a torn tail.
	var all []byte
	for _, b := range out {
		all = append(all, b...)
	}
	out = append(out, all, all[:len(all)-3])
	return out
}

// FuzzDecodeRecord hammers the record parser with arbitrary bytes: it
// must never panic, must consume within bounds, and anything it accepts
// must survive a value round-trip through Encode. A walk must always
// stop on a prefix DecodeAll accepts.
func FuzzDecodeRecord(f *testing.F) {
	for _, seed := range fuzzSeedRecords() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		r, n, err := Decode(buf)
		if err == nil {
			if n <= 0 || n > len(buf) {
				t.Fatalf("Decode consumed %d of %d bytes", n, len(buf))
			}
			// Re-encode and decode again: the values must be stable.
			// (Byte identity is not required — a CRC-valid buffer with
			// non-canonical varints decodes fine but re-encodes
			// canonically.)
			enc := r.Encode(nil)
			r2, n2, err2 := Decode(enc)
			if err2 != nil {
				t.Fatalf("re-decode of re-encoded record failed: %v", err2)
			}
			if n2 != len(enc) {
				t.Fatalf("re-decode consumed %d of %d bytes", n2, len(enc))
			}
			if r2.Tag != r.Tag || r2.Txn != r.Txn ||
				r2.PID != r.PID || r2.Slot != r.Slot || r2.Off != r.Off ||
				!bytes.Equal(r2.Data, r.Data) {
				t.Fatalf("record round-trip mismatch: %+v != %+v", r2, r)
			}
		}
		valid := validPrefix(buf)
		if valid < 0 || valid > len(buf) {
			t.Fatalf("Walk.Clean = %d of %d bytes", valid, len(buf))
		}
		if _, err := DecodeAll(buf[:valid]); err != nil {
			t.Fatalf("DecodeAll rejected its own valid prefix (%d bytes): %v", valid, err)
		}
	})
}

// FuzzDecodePage hammers the log-page parser: no panics on arbitrary
// input, and any accepted page must round-trip byte-identically (the
// page encoding is canonical).
func FuzzDecodePage(f *testing.F) {
	recs := fuzzSeedRecords()
	pages := []*Page{
		{PID: addr.PartitionID{Segment: 2, Part: 0}, Records: recs[0]},
		{PID: addr.PartitionID{Segment: 31, Part: 129}, Records: recs[4]},
		{PID: addr.PartitionID{Segment: 1, Part: 1}},
	}
	for _, p := range pages {
		f.Add(p.Encode())
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, err := DecodePage(buf)
		if err != nil {
			return
		}
		if sz := p.EncodedSize(); sz > len(buf) {
			t.Fatalf("accepted page claims %d encoded bytes from a %d-byte input", sz, len(buf))
		}
		enc := p.Encode()
		if !bytes.Equal(enc, buf[:len(enc)]) {
			t.Fatalf("page re-encode is not byte-identical")
		}
		if _, err := DecodePage(enc); err != nil {
			t.Fatalf("re-decode of re-encoded page failed: %v", err)
		}
	})
}
