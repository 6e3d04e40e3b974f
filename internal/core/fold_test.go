package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/mm"
	"mmdb/internal/wal"
)

// refFold is the fold rule read literally, one quadratic scan per
// record: the model that fold and the sorter tests are held to. It
// returns which records of recs survive.
func refFold(recs []wal.Record) []bool {
	keep := make([]bool, len(recs))
	isWrite := func(t wal.Tag) bool { return t == wal.TagRelWrite || t == wal.TagIdxWrite }
	isUpdate := func(t wal.Tag) bool { return t == wal.TagRelUpdate || t == wal.TagIdxUpdate }
	isBarrier := func(t wal.Tag) bool {
		return t == wal.TagRelInsert || t == wal.TagIdxInsert || t == wal.TagRelDelete || t == wal.TagIdxDelete
	}
	sameSlot := func(a, b *wal.Record) bool { return a.PID == b.PID && a.Slot == b.Slot }
	superseded := func(i int) bool {
		ri := &recs[i]
		if !isWrite(ri.Tag) && !isUpdate(ri.Tag) {
			return false
		}
		for j := i + 1; j < len(recs); j++ {
			rj := &recs[j]
			if !sameSlot(ri, rj) {
				continue
			}
			if isBarrier(rj.Tag) {
				return false
			}
			if isUpdate(rj.Tag) || isWrite(ri.Tag) && rj.Tag == ri.Tag && rj.Off == ri.Off && len(rj.Data) == len(ri.Data) {
				return true
			}
		}
		return false
	}
	// keptSize is the slot's size after the records kept before i: the
	// last kept insert or update, 0 after a delete, unknown (-1) if none.
	keptSize := func(i int) int {
		for j := i - 1; j >= 0; j-- {
			rj := &recs[j]
			switch {
			case !sameSlot(&recs[i], rj) || !keep[j]:
			case rj.Tag == wal.TagRelDelete || rj.Tag == wal.TagIdxDelete:
				return 0
			case isBarrier(rj.Tag) || isUpdate(rj.Tag):
				return len(rj.Data)
			}
		}
		return -1
	}
	// quiet: no insert or update of any slot lies between update i and
	// the next update of its slot.
	quiet := func(i int) bool {
		for j := i + 1; j < len(recs); j++ {
			if sameSlot(&recs[i], &recs[j]) && isUpdate(recs[j].Tag) {
				return true
			}
			if isUpdate(recs[j].Tag) || recs[j].Tag == wal.TagRelInsert || recs[j].Tag == wal.TagIdxInsert {
				return false
			}
		}
		return false
	}
	for i := range recs {
		keep[i] = true
		if !superseded(i) {
			continue
		}
		if isWrite(recs[i].Tag) || quiet(i) {
			keep[i] = false
		} else if size := keptSize(i); size >= 0 && size <= len(recs[i].Data) {
			keep[i] = false
		}
	}
	return keep
}

// refFoldBytes applies refFold to a clean record stream.
func refFoldBytes(t *testing.T, buf []byte) []byte {
	t.Helper()
	recs, err := wal.DecodeAll(buf)
	mustOK(t, err)
	var out []byte
	for i, keep := range refFold(recs) {
		if keep {
			out = recs[i].Encode(out)
		}
	}
	return out
}

// entities lists a partition's live slots and their bytes: what a
// replay must reproduce. The raw image is not compared: where a
// size-changing update lands in the heap depends on which updates ran.
func entities(p *mm.Partition) string {
	var sb strings.Builder
	p.Slots(func(s addr.Slot, data []byte) bool {
		fmt.Fprintf(&sb, "%d:%s ", s, hex.EncodeToString(data))
		return true
	})
	return sb.String()
}

// imageFrom builds a starting image from spec, two bytes an entity:
// slot, then length; slots absent from spec are missing.
func imageFrom(pid addr.PartitionID, spec []byte) *mm.Partition {
	p := mm.NewPartition(pid, refPartSize)
	for i := 0; i+1 < len(spec); i += 2 {
		slot := addr.Slot(spec[i] % 8)
		data := bytes.Repeat([]byte{spec[i]}, int(spec[i+1]%48))
		if _, err := p.Read(slot); err == nil {
			continue
		}
		_ = p.InsertAt(slot, data)
	}
	return p
}

// sameFoldedReplay replays page and its fold onto two copies of the
// image spec describes and reports the first difference. A replay of
// the unfolded page that fails to apply (a partition overfilled by a
// random stream) proves nothing and passes.
func sameFoldedReplay(f *folder, pid addr.PartitionID, page, spec []byte) error {
	plain, folded := imageFrom(pid, spec), imageFrom(pid, spec)
	before := entities(plain)
	_, plainClean, plainCut, plainErr := replayPrefix(plain, page)
	body, n, nbytes := f.fold(page)
	if len(body) != len(page)-nbytes {
		return fmt.Errorf("fold of %d bytes returned %d, less %d folded", len(page), len(body), nbytes)
	}
	if n == 0 && len(page) > 0 && &body[0] != &page[0] {
		return fmt.Errorf("nothing folded, but the page was copied")
	}
	_, foldedClean, foldedCut, foldedErr := replayPrefix(folded, body)
	switch {
	case plainErr != nil:
		return nil
	case foldedErr != nil:
		return fmt.Errorf("folded replay failed where the page applied: %v", foldedErr)
	case entities(plain) != entities(folded):
		return fmt.Errorf("%d records folded: from %s\npage gives   %s\nfold gives   %s", n, before, entities(plain), entities(folded))
	case errText(plainCut) != errText(foldedCut):
		return fmt.Errorf("cut %v, the page's %v", foldedCut, plainCut)
	case !bytes.Equal(page[plainClean:], body[foldedClean:]):
		return fmt.Errorf("undecodable suffix of %d bytes became %d", len(page)-plainClean, len(body)-foldedClean)
	}
	return nil
}

// foldStream encodes n records over a few slots, weighted towards what
// folds: rewrites of the same bytes, whole-image updates of changing
// size, and the inserts and deletes that bar a fold.
func foldStream(rng *rand.Rand, pid addr.PartitionID, n int) []byte {
	var buf []byte
	for i := 0; i < n; i++ {
		r := wal.Record{Txn: uint64(1 + rng.Intn(8)), PID: pid, Slot: addr.Slot(rng.Intn(4))}
		idx := rng.Intn(4) == 0
		switch k := rng.Intn(20); {
		case k < 9:
			r.Tag, r.Off, r.Data = wal.TagRelWrite, uint16(4*rng.Intn(3)), make([]byte, 4*(1+rng.Intn(2)))
		case k < 14:
			r.Tag, r.Data = wal.TagRelUpdate, make([]byte, 8+rng.Intn(24))
		case k < 16:
			r.Tag, r.Data = wal.TagRelInsert, make([]byte, 8+rng.Intn(24))
		case k < 18:
			r.Tag = wal.TagRelDelete
		case k < 19:
			r.Tag = wal.TagPartAlloc
		default:
			r.Tag, r.Off, r.Data = wal.TagRelWrite, 0, make([]byte, 8)
			r.PID.Part++ // foreign: decoded, never applied
		}
		if idx && r.Tag <= wal.TagRelWrite {
			r.Tag += wal.TagIdxInsert - wal.TagRelInsert
		}
		rng.Read(r.Data)
		buf = r.Encode(buf)
	}
	return buf
}

// recordStarts lists where each record of a clean stream begins.
func recordStarts(buf []byte) []int {
	var starts []int
	for w, at := wal.Walk(buf), 0; w.Next(); at = w.Clean() {
		starts = append(starts, at)
	}
	return starts
}

// A folded page replays to the same entities and the same cut as the
// page, from images with slots missing, shorter or longer than the
// page's records expect; with a re-sorted run of records repeated, as a
// restart's drain repeats a chain that was half sorted at the crash;
// and with a rotted record mid-page.
func TestFoldReplaysLikeThePage(t *testing.T) {
	pid := addr.PartitionID{Segment: 4, Part: 2}
	rng := rand.New(rand.NewSource(42))
	var f folder
	var folded, dropped int
	for round := 0; round < 400; round++ {
		page := foldStream(rng, pid, 1+rng.Intn(40))
		starts := recordStarts(page)
		variants := map[string][]byte{"page": page}
		if len(starts) > 2 {
			from := starts[rng.Intn(len(starts))]
			variants["re-sorted"] = append(append([]byte(nil), page...), page[from:]...)
			rotted := append([]byte(nil), page...)
			at := starts[len(starts)/2] + rng.Intn(4)
			rotted[at] ^= 1 << rng.Intn(8)
			variants["rotted"] = rotted
			variants["torn"] = page[:len(page)-1-rng.Intn(4)]
		}
		spec := make([]byte, 2*rng.Intn(6))
		rng.Read(spec)
		for name, v := range variants {
			if err := sameFoldedReplay(&f, pid, v, spec); err != nil {
				t.Fatalf("round %d, %s: %v", round, name, err)
			}
			body, n, _ := f.fold(v)
			if n > 0 {
				folded++
				dropped += n
			}
			if name == "page" && !bytes.Equal(body, refFoldBytes(t, v)) {
				t.Fatalf("round %d: fold differs from the rule read literally", round)
			}
		}
	}
	if folded < 200 || dropped < 1000 {
		t.Fatalf("only %d pages folded (%d records): the streams do not exercise the fold", folded, dropped)
	}
}

// A record that nothing supersedes stays, and so does its order.
func TestFoldRule(t *testing.T) {
	pid := addr.PartitionID{Segment: 4, Part: 2}
	rec := func(tag wal.Tag, slot addr.Slot, off uint16, n int) wal.Record {
		return wal.Record{Tag: tag, PID: pid, Slot: slot, Off: off, Data: bytes.Repeat([]byte{byte(slot)}, n)}
	}
	cases := []struct {
		name string
		recs []wal.Record
		keep string
	}{
		{"write rewritten", []wal.Record{rec(wal.TagRelWrite, 1, 4, 8), rec(wal.TagRelWrite, 1, 4, 8)}, "01"},
		{"other offset", []wal.Record{rec(wal.TagRelWrite, 1, 4, 8), rec(wal.TagRelWrite, 1, 0, 8)}, "11"},
		{"other length", []wal.Record{rec(wal.TagRelWrite, 1, 4, 8), rec(wal.TagRelWrite, 1, 4, 4)}, "11"},
		{"other tag", []wal.Record{rec(wal.TagRelWrite, 1, 4, 8), rec(wal.TagIdxWrite, 1, 4, 8)}, "11"},
		{"other slot", []wal.Record{rec(wal.TagRelWrite, 1, 4, 8), rec(wal.TagRelWrite, 2, 4, 8)}, "11"},
		{"write then update", []wal.Record{rec(wal.TagRelWrite, 1, 4, 8), rec(wal.TagRelUpdate, 1, 0, 16)}, "01"},
		{"update then write", []wal.Record{rec(wal.TagRelUpdate, 1, 0, 16), rec(wal.TagRelWrite, 1, 0, 16)}, "11"},
		{"insert bars", []wal.Record{rec(wal.TagRelWrite, 1, 4, 8), rec(wal.TagRelInsert, 1, 0, 16), rec(wal.TagRelWrite, 1, 4, 8)}, "111"},
		{"delete bars", []wal.Record{rec(wal.TagRelUpdate, 1, 0, 8), rec(wal.TagRelDelete, 1, 0, 0), rec(wal.TagRelUpdate, 1, 0, 8)}, "111"},
		{"nothing placed between", []wal.Record{rec(wal.TagRelUpdate, 1, 0, 8), rec(wal.TagRelWrite, 2, 0, 4), rec(wal.TagRelDelete, 3, 0, 0), rec(wal.TagRelUpdate, 1, 0, 8)}, "0111"},
		{"insert between", []wal.Record{rec(wal.TagRelUpdate, 1, 0, 8), rec(wal.TagRelInsert, 2, 0, 8), rec(wal.TagRelUpdate, 1, 0, 8)}, "111"},
		{"update between", []wal.Record{rec(wal.TagRelUpdate, 1, 0, 8), rec(wal.TagIdxUpdate, 2, 0, 8), rec(wal.TagRelUpdate, 1, 0, 8)}, "111"},
		{"grown", []wal.Record{rec(wal.TagRelInsert, 1, 0, 8), rec(wal.TagRelUpdate, 1, 0, 12), rec(wal.TagRelInsert, 2, 0, 8), rec(wal.TagRelUpdate, 1, 0, 8)}, "1011"},
		{"shrunk", []wal.Record{rec(wal.TagRelInsert, 1, 0, 16), rec(wal.TagRelUpdate, 1, 0, 12), rec(wal.TagRelInsert, 2, 0, 8), rec(wal.TagRelUpdate, 1, 0, 20)}, "1111"},
		{"after delete", []wal.Record{rec(wal.TagRelDelete, 1, 0, 0), rec(wal.TagRelUpdate, 1, 0, 8), rec(wal.TagRelInsert, 2, 0, 8), rec(wal.TagRelUpdate, 1, 0, 8)}, "1011"},
		{"kept size", []wal.Record{rec(wal.TagRelInsert, 1, 0, 8), rec(wal.TagRelUpdate, 1, 0, 12), rec(wal.TagRelInsert, 2, 0, 8), rec(wal.TagRelUpdate, 1, 0, 10),
			rec(wal.TagRelInsert, 3, 0, 8), rec(wal.TagRelUpdate, 1, 0, 4)}, "101011"},
		{"partition records", []wal.Record{rec(wal.TagPartAlloc, 0, 0, 0), rec(wal.TagPartAlloc, 0, 0, 0)}, "11"},
		{"insert twice", []wal.Record{rec(wal.TagRelInsert, 1, 0, 8), rec(wal.TagRelInsert, 1, 0, 8)}, "11"},
	}
	var f folder
	for _, c := range cases {
		var page []byte
		for i := range c.recs {
			page = c.recs[i].Encode(page)
		}
		want := ""
		for _, k := range refFold(c.recs) {
			want += map[bool]string{true: "1", false: "0"}[k]
		}
		if want != c.keep {
			t.Fatalf("%s: the rule keeps %s, the case says %s", c.name, want, c.keep)
		}
		body, n, _ := f.fold(page)
		var wantBody []byte
		for i := range c.recs {
			if c.keep[i] == '1' {
				wantBody = c.recs[i].Encode(wantBody)
			}
		}
		if !bytes.Equal(body, wantBody) || n != strings.Count(c.keep, "0") {
			t.Fatalf("%s: fold kept %d bytes (%d folded), want %d bytes (keep %s)", c.name, len(body), n, len(wantBody), c.keep)
		}
	}
}

// An update that shrank its slot stays: dropping it would leave the old,
// larger image in place while the insert it made room for replays, and
// that insert would find the partition full.
func TestFoldKeepsTheRoomAnUpdateMade(t *testing.T) {
	pid := addr.PartitionID{Segment: 4, Part: 2}
	const partSize = 512
	big := mm.MaxEntity(partSize) - 3*64
	var page []byte
	for _, r := range []wal.Record{
		{Tag: wal.TagRelInsert, PID: pid, Slot: 0, Data: make([]byte, big)},
		{Tag: wal.TagRelUpdate, PID: pid, Slot: 0, Data: make([]byte, 8)},
		{Tag: wal.TagRelInsert, PID: pid, Slot: 1, Data: make([]byte, big-16)},
		{Tag: wal.TagRelUpdate, PID: pid, Slot: 0, Data: make([]byte, 12)},
	} {
		page = r.Encode(page)
	}
	var f folder
	body, n, _ := f.fold(page)
	if n != 0 {
		t.Fatalf("%d records folded; the shrinking update must stay", n)
	}
	p := mm.NewPartition(pid, partSize)
	if _, _, cut, err := replayPrefix(p, body); err != nil || cut != nil {
		t.Fatalf("replay of the flushed page: cut %v, err %v", cut, err)
	}
}

// Once its scratch has grown, folding a page allocates only what the
// result needs: nothing.
func TestFoldAllocatesNothing(t *testing.T) {
	pid := addr.PartitionID{Segment: 4, Part: 2}
	page := foldStream(rand.New(rand.NewSource(3)), pid, 300)
	var f folder
	f.fold(page)
	if allocs := testing.AllocsPerRun(20, func() { f.fold(page) }); allocs != 0 {
		t.Fatalf("folding a %d-byte page allocates %.0f times, want 0", len(page), allocs)
	}
}

// FuzzFoldPage holds the fold to the page it folds on arbitrary bytes
// and starting images: the same entities and the same cut.
func FuzzFoldPage(f *testing.F) {
	for _, seed := range walCorpus(f) {
		f.Add(seed, []byte{1, 8, 2, 3})
	}
	rng := rand.New(rand.NewSource(7))
	pid := addr.PartitionID{Segment: 4, Part: 2}
	for i := 0; i < 8; i++ {
		page := foldStream(rng, pid, 4+rng.Intn(24))
		f.Add(page, []byte{0, 20, 1, 4, 3, 47})
		f.Add(page[:len(page)-2], []byte{})
	}
	var fd folder
	f.Fuzz(func(t *testing.T, page, spec []byte) {
		pid := addr.PartitionID{Segment: 4, Part: 2}
		if r, _, err := wal.Decode(page); err == nil {
			pid = r.PID
		}
		if len(page) == 0 {
			return
		}
		if err := sameFoldedReplay(&fd, pid, page, spec); err != nil {
			t.Fatal(err)
		}
	})
}
