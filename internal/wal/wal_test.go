package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mmdb/internal/addr"
	"mmdb/internal/simdisk"
)

func sampleRecord() Record {
	return Record{
		Tag:  TagRelUpdate,
		Bin:  7,
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

func TestRecordRoundTripEmptyData(t *testing.T) {
	r := Record{Tag: TagRelDelete, Bin: NoBin, Txn: 1, PID: addr.PartitionID{Segment: 2, Part: 0}, Slot: 3}
	got, _, err := Decode(r.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip: %+v vs %+v", got, r)
	}
}

func TestRecordQuickRoundTrip(t *testing.T) {
	f := func(tag uint8, bin uint32, txn uint64, seg, part uint32, slot uint16, off uint16, data []byte) bool {
		r := Record{
			Tag:  Tag(tag%uint8(tagMax-1)) + 1, // any valid tag
			Bin:  BinIndex(bin),
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
			Bin:  BinIndex(rng.Uint32()),
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
	p := &Page{
		PID:     addr.PartitionID{Segment: 9, Part: 4},
		Prev:    simdisk.LSN(17),
		Dir:     []simdisk.LSN{3, 9, 17},
		DirPrev: simdisk.LSN(2),
		Records: recs,
	}
	enc := p.Encode()
	if len(enc) != p.EncodedSize() {
		t.Fatalf("EncodedSize = %d, len = %d", p.EncodedSize(), len(enc))
	}
	got, err := DecodePage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.PID != p.PID || got.Prev != p.Prev || got.DirPrev != p.DirPrev {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Dir, p.Dir) {
		t.Fatalf("dir mismatch: %v", got.Dir)
	}
	if !bytes.Equal(got.Records, p.Records) {
		t.Fatal("records mismatch")
	}
	if _, err := DecodeAll(got.Records); err != nil {
		t.Fatalf("embedded records: %v", err)
	}
}

func TestPageRoundTripNoDir(t *testing.T) {
	p := &Page{PID: addr.PartitionID{Segment: 1, Part: 1}, Prev: simdisk.NilLSN, Records: []byte{}}
	got, err := DecodePage(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Dir) != 0 || got.Prev != simdisk.NilLSN {
		t.Fatalf("got %+v", got)
	}
}

func TestPageDecodeCorrupt(t *testing.T) {
	if _, err := DecodePage([]byte{1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short header: %v", err)
	}
	p := &Page{PID: addr.PartitionID{Segment: 1, Part: 1}, Dir: []simdisk.LSN{1, 2}}
	enc := p.Encode()
	if _, err := DecodePage(enc[:len(enc)-4]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated body: %v", err)
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
	f := func(seg, part uint32, prev uint64, dir []uint64, recs []byte) bool {
		// Records must be a valid concatenation; use raw bytes as a
		// single record payload instead.
		r := Record{Tag: TagIdxWrite, Txn: 1, Data: recs}
		p := &Page{
			PID:     addr.PartitionID{Segment: addr.SegmentID(seg), Part: addr.PartitionNum(part)},
			Prev:    simdisk.LSN(prev),
			Records: r.Encode(nil),
		}
		for _, d := range dir {
			p.Dir = append(p.Dir, simdisk.LSN(d))
		}
		if len(p.Dir) > 1000 {
			p.Dir = p.Dir[:1000]
		}
		got, err := DecodePage(p.Encode())
		if err != nil {
			return false
		}
		return got.PID == p.PID && got.Prev == p.Prev &&
			reflect.DeepEqual(got.Dir, p.Dir) && bytes.Equal(got.Records, p.Records)
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
