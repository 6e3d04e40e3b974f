package catalog

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"mmdb/internal/addr"
	"mmdb/internal/heap"
	"mmdb/internal/simdisk"
)

func sampleRelation() *RelationDesc {
	return &RelationDesc{
		RelID: 7,
		Name:  "accounts",
		Seg:   4,
		Schema: heap.Schema{
			{Name: "id", Type: heap.Int64},
			{Name: "balance", Type: heap.Float64},
			{Name: "owner", Type: heap.String},
		},
		Parts: []PartState{
			{Part: 0, Track: 3},
			{Part: 1, Track: simdisk.NilTrack},
		},
	}
}

func TestRelationRoundTrip(t *testing.T) {
	d := sampleRelation()
	got, err := DecodeRelation(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, d)
	}
	// NilTrack survives the int32<->uint32 packing.
	if got.Parts[1].Track != simdisk.NilTrack {
		t.Fatalf("NilTrack decoded as %d", got.Parts[1].Track)
	}
}

func TestRelationRoundTripEmptyParts(t *testing.T) {
	d := &RelationDesc{RelID: 1, Name: "x", Seg: 2, Schema: heap.Schema{{Name: "a", Type: heap.Int64}}}
	got, err := DecodeRelation(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Parts) != 0 || got.Name != "x" {
		t.Fatalf("got %+v", got)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	d := &IndexDesc{
		IdxID:  9,
		Name:   "accounts_id",
		RelID:  7,
		Seg:    5,
		Kind:   KindTTree,
		Column: 0,
		Order:  16,
		Header: addr.EntityAddr{Segment: 5, Part: 0, Slot: 0},
		Parts:  []PartState{{Part: 0, Track: 11}},
	}
	got, err := DecodeIndex(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, d)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	enc := sampleRelation().Encode()
	for _, cut := range []int{0, 3, 9, len(enc) - 1} {
		if _, err := DecodeRelation(enc[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut %d: %v", cut, err)
		}
	}
	if _, err := DecodeRelation(append(enc, 1)); !errors.Is(err, ErrCorrupt) {
		t.Error("trailing bytes accepted")
	}
	idx := (&IndexDesc{IdxID: 1, Name: "i", Kind: KindLinHash}).Encode()
	if _, err := DecodeIndex(idx[:5]); !errors.Is(err, ErrCorrupt) {
		t.Error("truncated index accepted")
	}
}

func TestRootRoundTrip(t *testing.T) {
	r := &Root{
		RelCatParts: []PartState{{Part: 0, Track: 1}, {Part: 1, Track: simdisk.NilTrack}},
		IdxCatParts: []PartState{{Part: 0, Track: 2}},
		NextRelID:   12,
		NextIdxID:   4,
		NextSeg:     9,
	}
	got, err := DecodeRoot(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, r)
	}
}

func TestRootClone(t *testing.T) {
	r := &Root{RelCatParts: []PartState{{Part: 0, Track: 1}}, NextRelID: 5}
	c := r.Clone()
	c.RelCatParts[0].Track = 9
	c.NextRelID = 6
	if r.RelCatParts[0].Track != 1 || r.NextRelID != 5 {
		t.Fatal("clone aliases original")
	}
}

func TestQuickRelationRoundTrip(t *testing.T) {
	f := func(id uint64, name string, seg uint32, parts []uint32) bool {
		if len(name) > 1000 {
			name = name[:1000]
		}
		d := &RelationDesc{
			RelID:  id,
			Name:   name,
			Seg:    addr.SegmentID(seg),
			Schema: heap.Schema{{Name: "k", Type: heap.Int64}},
		}
		for i, p := range parts {
			d.Parts = append(d.Parts, PartState{Part: addr.PartitionNum(p), Track: simdisk.TrackLoc(int32(i - 1))})
		}
		got, err := DecodeRelation(d.Encode())
		return err == nil && reflect.DeepEqual(got, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if KindTTree.String() != "ttree" || KindLinHash.String() != "linhash" {
		t.Fatal("kind names")
	}
	if IndexKind(9).String() != "kind(9)" {
		t.Fatal("unknown kind name")
	}
}

// TestTrackAtFindsEveryPart holds TrackAt to the list it walks: every
// listed partition's track is found, for relation and index descriptors,
// also when freed partitions have left gaps in the numbering.
func TestTrackAtFindsEveryPart(t *testing.T) {
	parts := []PartState{{Part: 0, Track: 3}, {Part: 1, Track: simdisk.NilTrack}, {Part: 4, Track: 9}, {Part: 2, Track: 70000}}
	rel := sampleRelation()
	rel.Parts = parts
	idx := &IndexDesc{IdxID: 9, Name: "accounts_id", RelID: 7, Seg: 5, Kind: KindLinHash, Column: 0, Order: 16,
		Header: addr.EntityAddr{Segment: 5, Part: 0, Slot: 1}, Parts: parts}
	for _, c := range []struct {
		index bool
		raw   []byte
	}{{false, rel.Encode()}, {true, idx.Encode()}} {
		for _, ps := range parts {
			if track, err := TrackAt(c.raw, c.index, ps.Part); err != nil || track != ps.Track {
				t.Fatalf("index=%v part %d: TrackAt = %d, %v; want track %d", c.index, ps.Part, track, err, ps.Track)
			}
		}
		if _, err := TrackAt(c.raw, c.index, 3); !errors.Is(err, ErrNoPartition) {
			t.Fatalf("index=%v: unlisted partition: %v", c.index, err)
		}
		// Every length on the way is checked: no truncation, and no
		// trailing byte, gets past it.
		for cut := 0; cut < len(c.raw); cut++ {
			if _, err := TrackAt(c.raw[:cut], c.index, 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("index=%v: cut at %d of %d: %v", c.index, cut, len(c.raw), err)
			}
		}
		if _, err := TrackAt(append(c.raw, 0), c.index, 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("index=%v: trailing byte: %v", c.index, err)
		}
	}
}

// TestWithPartsEqualsReEncode pins Parts and WithParts to the codec: Parts
// reads the list the decoder reads, and WithParts gives exactly the
// descriptor re-encoded with the new list, for relation and index
// descriptors, when the list grows, shrinks or empties. Every truncation,
// and a trailing byte, is ErrCorrupt to both.
func TestWithPartsEqualsReEncode(t *testing.T) {
	parts := []PartState{{Part: 0, Track: 3}, {Part: 1, Track: simdisk.NilTrack}, {Part: 4, Track: 9}}
	rel := sampleRelation()
	idx := &IndexDesc{IdxID: 9, Name: "accounts_id", RelID: 7, Seg: 5, Kind: KindTTree, Column: 0, Order: 16,
		Header: addr.EntityAddr{Segment: 5, Part: 0, Slot: 1}}
	for _, c := range []struct {
		index  bool
		encode func() []byte
		list   *[]PartState
	}{{false, rel.Encode, &rel.Parts}, {true, idx.Encode, &idx.Parts}} {
		*c.list = parts
		raw := c.encode()
		got, err := Parts(raw, c.index)
		if err != nil || !reflect.DeepEqual(got, parts) {
			t.Fatalf("index=%v: Parts = %v, %v; want %v", c.index, got, err, parts)
		}
		for _, next := range [][]PartState{
			append(append([]PartState(nil), parts...), PartState{Part: 5, Track: 70000}), // grown
			parts[:1], // shrunk
			nil,       // empty
		} {
			spliced, err := WithParts(raw, c.index, next)
			*c.list = next
			if want := c.encode(); err != nil || !reflect.DeepEqual(spliced, want) {
				t.Fatalf("index=%v: WithParts(%v) = %x, %v; Encode gives %x", c.index, next, spliced, err, want)
			}
			if got, err := Parts(spliced, c.index); err != nil || !reflect.DeepEqual(got, next) {
				t.Fatalf("index=%v: Parts of the spliced descriptor = %v, %v; want %v", c.index, got, err, next)
			}
		}
		for cut := 0; cut < len(raw); cut++ {
			if _, err := Parts(raw[:cut], c.index); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("index=%v: Parts, cut at %d of %d: %v", c.index, cut, len(raw), err)
			}
			if _, err := WithParts(raw[:cut], c.index, parts); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("index=%v: WithParts, cut at %d of %d: %v", c.index, cut, len(raw), err)
			}
		}
		if _, err := WithParts(append(raw, 0), c.index, parts); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("index=%v: trailing byte: %v", c.index, err)
		}
	}
}
