package catalog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/heap"
	"mmdb/internal/simdisk"
)

// testdata/golden.txt pins the decoders and the head walkers to the
// outcomes they gave when the file was written, for a fixed table of
// inputs: relation and index descriptors and roots, each cut at every
// byte, with a trailing byte, and with a count or string length one past
// what the bytes hold or far beyond it. Every input goes through every
// reader. A line is
//
//	name input relation index root parts.rel parts.idx trackat.rel trackat.idx withparts.rel withparts.idx
//
// An outcome is "corrupt", "nopart" or a result: a decoder's re-encoding
// ("=" when it equals the input), the list Parts read (as putParts writes
// it), the tracks TrackAt finds for partitions 0, 1, 2, 4 and 9, or the
// bytes WithParts gives for the list {3, 7}. Byte strings are hex, "-"
// when empty.
//
// go test ./internal/catalog -run '^TestGoldenOutcomes$' -update rewrites
// the file from goldenInputs and the current code; that is only for a
// deliberate change of the descriptor format.
var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current decoders")

const goldenPath = "testdata/golden.txt"

func TestGoldenOutcomes(t *testing.T) {
	if *update {
		var b bytes.Buffer
		for _, in := range goldenInputs() {
			fmt.Fprintf(&b, "%s %s %s\n", in.name, hexOf(in.b), strings.Join(outcomes(in.b), " "))
		}
		if err := os.WriteFile(goldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	readers := []string{"DecodeRelation", "DecodeIndex", "DecodeRoot", "Parts(rel)", "Parts(idx)",
		"TrackAt(rel)", "TrackAt(idx)", "WithParts(rel)", "WithParts(idx)"}
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		lines++
		fields := strings.Fields(sc.Text())
		if len(fields) != 2+len(readers) {
			t.Fatalf("line %d: %d fields", lines, len(fields))
		}
		in := []byte{}
		if fields[1] != "-" {
			if in, err = hex.DecodeString(fields[1]); err != nil {
				t.Fatalf("%s: %v", fields[0], err)
			}
		}
		for i, got := range outcomes(in) {
			if want := fields[2+i]; got != want {
				t.Errorf("%s: %s gives %s, golden %s", fields[0], readers[i], got, want)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := len(goldenInputs()); lines != want {
		t.Fatalf("%s has %d lines, goldenInputs %d", goldenPath, lines, want)
	}
}

func hexOf(b []byte) string {
	if len(b) == 0 {
		return "-"
	}
	return hex.EncodeToString(b)
}

func errClass(err error) string {
	switch {
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrNoPartition):
		return "nopart"
	}
	return "unclassified"
}

// outcomes runs in through every reader, in the golden file's order.
func outcomes(in []byte) []string {
	// result is a reader's outcome: its error's class, or the bytes enc
	// gives, "=" when they are the input.
	result := func(err error, enc func() []byte) string {
		switch {
		case err != nil:
			return errClass(err)
		case bytes.Equal(enc(), in):
			return "="
		}
		return hexOf(enc())
	}
	rel, errRel := DecodeRelation(in)
	idx, errIdx := DecodeIndex(in)
	root, errRoot := DecodeRoot(in)
	out := []string{
		result(errRel, func() []byte { return rel.Encode() }),
		result(errIdx, func() []byte { return idx.Encode() }),
		result(errRoot, func() []byte { return root.Encode() }),
	}
	for _, index := range []bool{false, true} {
		parts, err := Parts(in, index)
		out = append(out, result(err, func() []byte { return putParts(nil, parts) }))
	}
	for _, index := range []bool{false, true} {
		var tracks []string
		for _, p := range []addr.PartitionNum{0, 1, 2, 4, 9} {
			if track, err := TrackAt(in, index, p); err != nil {
				tracks = append(tracks, errClass(err))
			} else {
				tracks = append(tracks, fmt.Sprint(track))
			}
		}
		if tracks[0] == "corrupt" {
			tracks = tracks[:1]
		}
		out = append(out, strings.Join(tracks, ","))
	}
	for _, index := range []bool{false, true} {
		spliced, err := WithParts(in, index, []PartState{{Part: 3, Track: 7}})
		out = append(out, result(err, func() []byte { return spliced }))
	}
	return out
}

type goldenInput struct {
	name string
	b    []byte
}

func goldenInputs() []goldenInput {
	parts := []PartState{{Part: 0, Track: 3}, {Part: 1, Track: simdisk.NilTrack}, {Part: 4, Track: 9}, {Part: 2, Track: 70000}}
	rels := []*RelationDesc{
		{RelID: RelIDRelationCatalog, Name: "relcat"},
		sampleRelation(),
		{RelID: 1 << 63, Name: "", Seg: 1<<32 - 1, Schema: heap.Schema{{Name: "", Type: 0}}, Parts: parts},
	}
	idxs := []*IndexDesc{
		{IdxID: 9, Name: "accounts_id", RelID: 7, Seg: 5, Kind: KindTTree, Column: 0, Order: 16,
			Header: addr.EntityAddr{Segment: 5, Part: 0, Slot: 1}, Parts: parts},
		{IdxID: 2, Name: "owner", RelID: 7, Seg: 6, Kind: KindLinHash, Column: 2, Order: 64},
		{IdxID: 3, Name: "odd", Kind: IndexKind(9), Column: -1, Order: 1 << 31, Parts: parts[:1]},
	}
	roots := []*Root{
		{NextRelID: FirstUserRelID, NextIdxID: 1, NextSeg: 2},
		{RelCatParts: parts[:2], IdxCatParts: parts[2:], NextRelID: 12, NextIdxID: 5, NextSeg: 30},
	}

	// A field is a count (size 4) or string length (size 2) at an
	// offset of an encoding.
	type field struct {
		what      string
		off, size int
	}
	var ins []goldenInput
	add := func(name string, b []byte) { ins = append(ins, goldenInput{name, b}) }
	// variants adds raw, every cut of it, raw with a trailing byte, and
	// raw with each field one larger and at its maximum.
	variants := func(name string, raw []byte, fields ...field) {
		add(name, raw)
		for cut := 0; cut < len(raw); cut++ {
			add(fmt.Sprintf("%s/cut%d", name, cut), raw[:cut])
		}
		add(name+"/trailing", append(append([]byte(nil), raw...), 0))
		for _, f := range fields {
			plus, max := append([]byte(nil), raw...), append([]byte(nil), raw...)
			if f.size == 2 {
				binary.LittleEndian.PutUint16(plus[f.off:], binary.LittleEndian.Uint16(raw[f.off:])+1)
				binary.LittleEndian.PutUint16(max[f.off:], 1<<16-1)
			} else {
				binary.LittleEndian.PutUint32(plus[f.off:], binary.LittleEndian.Uint32(raw[f.off:])+1)
				binary.LittleEndian.PutUint32(max[f.off:], 1<<32-1)
			}
			add(name+"/"+f.what+"+1", plus)
			add(name+"/"+f.what+"max", max)
		}
	}
	for i, d := range rels {
		raw := d.Encode()
		variants(fmt.Sprintf("rel%d", i), raw,
			field{"namelen", 8, 2},
			field{"ncols", 8 + 2 + len(d.Name) + 4, 4},
			field{"parts", len(raw) - 4 - 8*len(d.Parts), 4})
	}
	for i, d := range idxs {
		raw := d.Encode()
		variants(fmt.Sprintf("idx%d", i), raw,
			field{"namelen", 8, 2},
			field{"parts", len(raw) - 4 - 8*len(d.Parts), 4})
	}
	for i, r := range roots {
		variants(fmt.Sprintf("root%d", i), r.Encode(),
			field{"relcat", 0, 4},
			field{"idxcat", 4 + 8*len(r.RelCatParts), 4})
	}
	return ins
}
