package catalog

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/heap"
	"mmdb/internal/simdisk"
)

// fuzzRelationSeeds/fuzzIndexSeeds/fuzzRootSeeds encode representative
// descriptors: recovery reads these back from catalog partitions and
// the well-known root location after arbitrary byte rot, so the
// decoders must never panic and must reject anything they cannot
// faithfully round-trip.

func fuzzRelationSeeds() [][]byte {
	descs := []RelationDesc{
		{RelID: RelIDRelationCatalog, Name: "relcat", Seg: 0},
		{RelID: 7, Name: "accounts", Seg: 3,
			Schema: []heap.Column{
				{Name: "id", Type: heap.Int64},
				{Name: "balance", Type: heap.Int64},
				{Name: "owner", Type: heap.String},
			},
			Parts: []PartState{
				{Part: 0, Track: 5},
				{Part: 1, Track: simdisk.NilTrack},
			}},
	}
	var out [][]byte
	for i := range descs {
		out = append(out, descs[i].Encode())
	}
	return out
}

func fuzzIndexSeeds() [][]byte {
	descs := []IndexDesc{
		{IdxID: 1, Name: "accounts_id", RelID: 7, Seg: 4, Kind: KindTTree,
			Column: 0, Order: 8,
			Header: addr.EntityAddr{Segment: 4, Part: 0, Slot: 1},
			Parts:  []PartState{{Part: 0, Track: 9}}},
		{IdxID: 2, Name: "accounts_owner", RelID: 7, Seg: 5, Kind: KindLinHash,
			Column: 2, Order: 64},
	}
	var out [][]byte
	for i := range descs {
		out = append(out, descs[i].Encode())
	}
	return out
}

func fuzzRootSeeds() [][]byte {
	roots := []Root{
		{NextRelID: FirstUserRelID, NextIdxID: 1, NextSeg: 2},
		{RelCatParts: []PartState{{Part: 0, Track: 1}, {Part: 1, Track: 2}},
			IdxCatParts: []PartState{{Part: 0, Track: simdisk.NilTrack}},
			NextRelID:   12, NextIdxID: 5, NextSeg: 30},
	}
	var out [][]byte
	for i := range roots {
		out = append(out, roots[i].Encode())
	}
	return out
}

// checkTrackAt holds TrackAt, which walks the raw bytes, to what the
// decoder made of the same bytes: every listed partition is found, with
// the track the decoder read for an entry that names it.
func checkTrackAt(t *testing.T, raw []byte, index bool, parts []PartState) {
	t.Helper()
	for _, ps := range parts {
		track, err := TrackAt(raw, index, ps.Part)
		if err != nil || !slices.Contains(parts, PartState{Part: ps.Part, Track: track}) {
			t.Fatalf("TrackAt(%d) = %d, %v; decoded list %v", ps.Part, track, err, parts)
		}
	}
}

// checkRejected: the byte walkers accept no descriptor the decoder
// rejects.
func checkRejected(t *testing.T, raw []byte, index bool, decodeErr error) {
	t.Helper()
	if _, err := TrackAt(raw, index, 0); err == nil {
		t.Fatalf("TrackAt accepted a descriptor the decoder rejects: %v", decodeErr)
	}
	if _, err := Parts(raw, index); err == nil {
		t.Fatalf("Parts accepted a descriptor the decoder rejects: %v", decodeErr)
	}
	if _, err := WithParts(raw, index, nil); err == nil {
		t.Fatalf("WithParts accepted a descriptor the decoder rejects: %v", decodeErr)
	}
}

// checkParts holds Parts to the decoded list, and WithParts to encode,
// the descriptor re-encoded with a given list: for the list as decoded,
// one entry shorter, one longer, and empty.
func checkParts(t *testing.T, raw []byte, index bool, parts []PartState, encode func([]PartState) []byte) {
	t.Helper()
	if got, err := Parts(raw, index); err != nil || !reflect.DeepEqual(got, parts) {
		t.Fatalf("Parts = %v, %v; decoded %v", got, err, parts)
	}
	lists := [][]PartState{parts, append(append([]PartState(nil), parts...), PartState{Part: 7, Track: 3}), nil}
	if len(parts) > 0 {
		lists = append(lists, parts[1:])
	}
	for _, p := range lists {
		got, err := WithParts(raw, index, p)
		if want := encode(p); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("WithParts(%v) = %x, %v; Encode gives %x", p, got, err, want)
		}
	}
}

// FuzzDecodeRelation hammers the relation-descriptor parser.
func FuzzDecodeRelation(f *testing.F) {
	for _, seed := range fuzzRelationSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		d, err := DecodeRelation(buf)
		if err != nil {
			checkRejected(t, buf, false, err)
			return
		}
		checkTrackAt(t, buf, false, d.Parts)
		checkParts(t, buf, false, d.Parts, func(p []PartState) []byte {
			e := *d
			e.Parts = p
			return e.Encode()
		})
		d2, err := DecodeRelation(d.Encode())
		if err != nil {
			t.Fatalf("re-decode of re-encoded relation failed: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("relation round-trip mismatch: %+v != %+v", d, d2)
		}
	})
}

// FuzzDecodeIndex hammers the index-descriptor parser.
func FuzzDecodeIndex(f *testing.F) {
	for _, seed := range fuzzIndexSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		d, err := DecodeIndex(buf)
		if err != nil {
			checkRejected(t, buf, true, err)
			return
		}
		checkTrackAt(t, buf, true, d.Parts)
		checkParts(t, buf, true, d.Parts, func(p []PartState) []byte {
			e := *d
			e.Parts = p
			return e.Encode()
		})
		d2, err := DecodeIndex(d.Encode())
		if err != nil {
			t.Fatalf("re-decode of re-encoded index failed: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("index round-trip mismatch: %+v != %+v", d, d2)
		}
	})
}

// FuzzDecodeRoot hammers the well-known-root parser, the very first
// thing restart reads (§2.5): a rotted root must come back as a typed
// error, never a panic or a silently skewed allocation high-water mark.
func FuzzDecodeRoot(f *testing.F) {
	for _, seed := range fuzzRootSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		r, err := DecodeRoot(buf)
		if err != nil {
			return
		}
		r2, err := DecodeRoot(r.Encode())
		if err != nil {
			t.Fatalf("re-decode of re-encoded root failed: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("root round-trip mismatch: %+v != %+v", r, r2)
		}
	})
}
