package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"
	"testing/quick"

	"mmdb/internal/addr"
)

func sampleRecord() Record {
	return Record{
		Tag:  TagRelUpdate,
		Txn:  0xDEADBEEF01,
		PID:  addr.PartitionID{Segment: 3, Part: 12},
		Slot: 44,
		Off:  16,
		Data: []byte("payload bytes"),
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := sampleRecord()
	enc := r.Encode(nil)
	if len(enc) != r.EncodedSize() {
		t.Fatalf("EncodedSize = %d, len = %d", r.EncodedSize(), len(enc))
	}
	got, n, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, r)
	}
}

// goldenRecord is the byte layout of one record, spelled out: no field
// may move, widen or reappear without this test saying so.
func goldenRecord() (Record, []byte) {
	r := Record{Tag: TagRelUpdate, Txn: 300, PID: addr.PartitionID{Segment: 3, Part: 12}, Slot: 44, Off: 16, Data: []byte("ab")}
	return r, []byte{
		0x03,       // tag: rel-update
		0xac, 0x02, // txn 300, uvarint
		0x03,           // segment
		0x0c,           // partition
		0x2c,           // slot 44
		0x10,           // offset 16
		0x02, 'a', 'b', // payload length, payload
		0x70, 0x64, 0xd4, 0x86, // CRC32-IEEE of the above, little-endian
	}
}

func TestRecordGoldenBytes(t *testing.T) {
	r, want := goldenRecord()
	if got := r.Encode(nil); !bytes.Equal(got, want) {
		t.Fatalf("record encodes as\n% x\nwant\n% x", got, want)
	}
	got, n, err := Decode(want)
	if err != nil || n != len(want) || !reflect.DeepEqual(got, r) {
		t.Fatalf("golden bytes decode to %+v, %d bytes, %v", got, n, err)
	}
}

// raceBuild reports a -race build, whose instrumentation keeps the
// compiler from folding slices.Grow's make into its append.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// Encode grows its buffer once, to the record's size, and not at all
// when the buffer has room; Decode allocates nothing.
func TestRecordCodecAllocations(t *testing.T) {
	r := sampleRecord()
	want := 1.0
	if raceBuild() {
		want = 2
	}
	if n := testing.AllocsPerRun(100, func() { _ = r.Encode(nil) }); n != want {
		t.Fatalf("Encode(nil) allocates %.0f times, want %.0f", n, want)
	}
	buf := make([]byte, 0, 2*r.EncodedSize())
	if n := testing.AllocsPerRun(100, func() { _ = r.Encode(buf[:1]) }); n != 0 {
		t.Fatalf("Encode into a buffer with room allocates %.0f times, want 0", n)
	}
	enc := r.Encode(nil)
	if n := testing.AllocsPerRun(100, func() { _, _, _ = Decode(enc) }); n != 0 {
		t.Fatalf("Decode allocates %.0f times, want 0", n)
	}
}

func TestPageGoldenBytes(t *testing.T) {
	_, rec := goldenRecord()
	p := &Page{PID: addr.PartitionID{Segment: 9, Part: 4}, Records: rec}
	want := append([]byte{
		0x09, 0x00, 0x00, 0x00, // segment
		0x04, 0x00, 0x00, 0x00, // partition
		0x0e, 0x00, 0x00, 0x00, // record bytes
	}, rec...)
	want = append(want, 0x4b, 0x12, 0xab, 0xa8) // CRC32-IEEE of the above
	if got := p.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("page encodes as\n% x\nwant\n% x", got, want)
	}
	got, err := DecodePage(want)
	if err != nil || got.PID != p.PID || !bytes.Equal(got.Records, rec) {
		t.Fatalf("golden bytes decode to %+v, %v", got, err)
	}
}

func TestRecordRoundTripEmptyData(t *testing.T) {
	r := Record{Tag: TagRelDelete, Txn: 1, PID: addr.PartitionID{Segment: 2, Part: 0}, Slot: 3}
	got, _, err := Decode(r.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip: %+v vs %+v", got, r)
	}
}

func TestRecordQuickRoundTrip(t *testing.T) {
	f := func(tag uint8, txn uint64, seg, part uint32, slot uint16, off uint16, data []byte) bool {
		r := Record{
			Tag:  Tag(tag%uint8(tagMax-1)) + 1, // any valid tag
			Txn:  txn,
			PID:  addr.PartitionID{Segment: addr.SegmentID(seg), Part: addr.PartitionNum(part)},
			Slot: addr.Slot(slot),
			Off:  off,
			Data: data,
		}
		if len(data) == 0 {
			r.Data = nil
		}
		got, n, err := Decode(r.Encode(nil))
		return err == nil && n == r.EncodedSize() && reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2, 3}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short buffer: %v", err)
	}
	r := sampleRecord()
	enc := r.Encode(nil)
	enc[0] = 0 // TagInvalid
	if _, _, err := Decode(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("invalid tag: %v", err)
	}
	enc = r.Encode(nil)
	if _, _, err := Decode(enc[:len(enc)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated payload: %v", err)
	}
	enc[0] = byte(tagMax)
	if _, _, err := Decode(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-range tag: %v", err)
	}
}

func TestDecodeAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var want []Record
	var buf []byte
	for i := 0; i < 50; i++ {
		r := Record{
			Tag:  Tag(rng.Intn(int(tagMax)-1) + 1),
			Txn:  rng.Uint64(),
			PID:  addr.PartitionID{Segment: addr.SegmentID(rng.Uint32()), Part: addr.PartitionNum(rng.Uint32())},
			Slot: addr.Slot(rng.Intn(1 << 16)),
			Off:  uint16(rng.Intn(1 << 16)),
		}
		if n := rng.Intn(40); n > 0 {
			r.Data = make([]byte, n)
			rng.Read(r.Data)
		}
		want = append(want, r)
		buf = r.Encode(buf)
	}
	got, err := DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("DecodeAll mismatch")
	}
	if _, err := DecodeAll(append(buf, 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestTagString(t *testing.T) {
	if TagRelInsert.String() != "rel-insert" {
		t.Errorf("TagRelInsert = %q", TagRelInsert.String())
	}
	if Tag(200).String() != "tag(200)" {
		t.Errorf("unknown tag = %q", Tag(200).String())
	}
	if TagInvalid.Valid() || Tag(250).Valid() {
		t.Error("invalid tags reported valid")
	}
	if !TagPartFree.Valid() {
		t.Error("TagPartFree invalid")
	}
}

func TestEntity(t *testing.T) {
	r := sampleRecord()
	want := addr.EntityAddr{Segment: 3, Part: 12, Slot: 44}
	if r.Entity() != want {
		t.Fatalf("Entity() = %v", r.Entity())
	}
}

func TestPageRoundTrip(t *testing.T) {
	var recs []byte
	r := sampleRecord()
	recs = r.Encode(recs)
	recs = r.Encode(recs)
	p := &Page{PID: addr.PartitionID{Segment: 9, Part: 4}, Records: recs}
	enc := p.Encode()
	if len(enc) != p.EncodedSize() {
		t.Fatalf("EncodedSize = %d, len = %d", p.EncodedSize(), len(enc))
	}
	got, err := DecodePage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.PID != p.PID {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Records, p.Records) {
		t.Fatal("records mismatch")
	}
	if _, err := DecodeAll(got.Records); err != nil {
		t.Fatalf("embedded records: %v", err)
	}
}

func TestPageRoundTripEmpty(t *testing.T) {
	p := &Page{PID: addr.PartitionID{Segment: 1, Part: 1}}
	got, err := DecodePage(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.PID != p.PID || len(got.Records) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestPageDecodeCorrupt(t *testing.T) {
	if _, err := DecodePage([]byte{1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short header: %v", err)
	}
	p := &Page{PID: addr.PartitionID{Segment: 1, Part: 1}, Records: []byte("xyz")}
	enc := p.Encode()
	if _, err := DecodePage(enc[:len(enc)-4]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated body: %v", err)
	}
	enc[pageHeaderSize] ^= 1
	if _, err := DecodePage(enc); !errors.Is(err, ErrChecksum) {
		t.Fatalf("rotted body: %v", err)
	}
	// A page of the older 30-byte header — seg, part, an 8-byte chain
	// pointer, an 8-byte directory pointer, a 2-byte directory length,
	// then recLen — reads the chain pointer as its record length and
	// fails.
	old := binary.LittleEndian.AppendUint32(nil, 1)
	old = binary.LittleEndian.AppendUint32(old, 1)
	old = binary.LittleEndian.AppendUint64(old, 17)
	old = append(old, make([]byte, 10)...)
	old = binary.LittleEndian.AppendUint32(old, 0)
	old = binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(old))
	if _, err := DecodePage(old); !errors.Is(err, ErrChecksum) {
		t.Fatalf("older layout: %v", err)
	}
}

func TestPageCheckPID(t *testing.T) {
	p := &Page{PID: addr.PartitionID{Segment: 1, Part: 2}}
	if err := p.CheckPID(addr.PartitionID{Segment: 1, Part: 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckPID(addr.PartitionID{Segment: 1, Part: 3}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched PID accepted: %v", err)
	}
}

func TestPageQuickRoundTrip(t *testing.T) {
	f := func(seg, part uint32, recs []byte) bool {
		// Records must be a valid concatenation; use raw bytes as a
		// single record payload instead.
		r := Record{Tag: TagIdxWrite, Txn: 1, Data: recs}
		p := &Page{
			PID:     addr.PartitionID{Segment: addr.SegmentID(seg), Part: addr.PartitionNum(part)},
			Records: r.Encode(nil),
		}
		got, err := DecodePage(p.Encode())
		if err != nil {
			return false
		}
		return got.PID == p.PID && bytes.Equal(got.Records, p.Records)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// validPrefix walks buf to the end or to the first undecodable record
// and returns where the walk stopped.
func validPrefix(buf []byte) int {
	w := Walk(buf)
	for w.Next() {
	}
	return w.Clean()
}

func TestValidPrefix(t *testing.T) {
	var buf []byte
	var bounds []int
	for i := 0; i < 5; i++ {
		r := sampleRecord()
		r.Slot = addr.Slot(i)
		buf = r.Encode(buf)
		bounds = append(bounds, len(buf))
	}
	if got := validPrefix(buf); got != len(buf) {
		t.Fatalf("Walk.Clean(clean) = %d, want %d", got, len(buf))
	}
	if got := validPrefix(nil); got != 0 {
		t.Fatalf("Walk.Clean(nil) = %d", got)
	}
	// Every torn cut inside the last record reports the boundary of the
	// second-to-last record (or possibly earlier if a suffix happens to
	// decode; it must never exceed the cut).
	last := bounds[len(bounds)-2]
	for cut := last + 1; cut < len(buf); cut++ {
		got := validPrefix(buf[:cut])
		if got > cut {
			t.Fatalf("Walk.Clean(%d-byte tear) = %d, exceeds input", cut, got)
		}
		if got != last && got != cut {
			// A tear either truncates the final record (prefix = last
			// whole-record boundary) or coincidentally still decodes;
			// for this fixed payload it must be the boundary.
			t.Fatalf("Walk.Clean(%d-byte tear) = %d, want %d", cut, got, last)
		}
	}
	// Garbage after clean records stops at the garbage.
	if got := validPrefix(append(append([]byte(nil), buf[:last]...), 0x00, 0xFF)); got != last {
		t.Fatalf("Walk.Clean(garbage tail) = %d, want %d", got, last)
	}
}

func TestWalk(t *testing.T) {
	var page []byte
	var want []Record
	var ends []int
	for i := 0; len(page) < 8<<10; i++ {
		r := sampleRecord()
		r.Slot, r.Txn = addr.Slot(i), uint64(i)
		want = append(want, r)
		page = r.Encode(page)
		ends = append(ends, len(page))
	}
	w, i := Walk(page), 0
	for ; w.Next(); i++ {
		if !reflect.DeepEqual(*w.Record(), want[i]) {
			t.Fatalf("record %d = %+v, want %+v", i, *w.Record(), want[i])
		}
		if !bytes.Equal(w.Bytes(), want[i].Encode(nil)) || w.Clean() != ends[i] {
			t.Fatalf("record %d spans % x, ending at %d", i, w.Bytes(), w.Clean())
		}
	}
	if i != len(want) || w.Clean() != len(page) || w.Err() != nil {
		t.Fatalf("walked %d of %d records, %d of %d bytes, err %v", i, len(want), w.Clean(), len(page), w.Err())
	}
	if allocs := testing.AllocsPerRun(50, func() {
		for w := Walk(page); w.Next(); {
		}
	}); allocs != 0 {
		t.Fatalf("walking a clean 8 KB page allocates %.0f times, want 0", allocs)
	}

	// Rot in the third record: the walk yields two, stops for good on the
	// boundary before it, and says it was a checksum, not a short read.
	third := ends[1]
	rotted := append([]byte(nil), page...)
	rotted[ends[2]-6] ^= 0x40
	w, i = Walk(rotted), 0
	for w.Next() {
		i++
	}
	if i != 2 || w.Clean() != third || !errors.Is(w.Err(), ErrChecksum) || w.Next() {
		t.Fatalf("rot: %d records, clean %d (want %d), err %v", i, w.Clean(), third, w.Err())
	}
	// A tear is corrupt but not a checksum mismatch.
	w = Walk(page[:third+5])
	for w.Next() {
	}
	if w.Clean() != third || !errors.Is(w.Err(), ErrCorrupt) || errors.Is(w.Err(), ErrChecksum) {
		t.Fatalf("tear: clean %d (want %d), err %v", w.Clean(), third, w.Err())
	}
}
