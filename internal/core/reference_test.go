package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/mm"
	"mmdb/internal/wal"
)

// Replay as it was before it became one walk: find the valid prefix
// (first decode), decode the prefix into a slice (second decode), apply
// the slice. It is kept, unchanged, as the model the differential tests
// hold replayPrefix to: same image bytes, same applied count, same cut
// offset, same errors.

func refValidPrefix(buf []byte) int {
	pos := 0
	for pos < len(buf) {
		_, n, err := wal.Decode(buf[pos:])
		if err != nil {
			return pos
		}
		pos += n
	}
	return pos
}

func refDecodeAll(buf []byte) ([]wal.Record, error) {
	var out []wal.Record
	for len(buf) > 0 {
		r, n, err := wal.Decode(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		buf = buf[n:]
	}
	return out, nil
}

func refApplyRecords(p *mm.Partition, buf []byte) (int, error) {
	recs, err := refDecodeAll(buf)
	if err != nil {
		return 0, err
	}
	n := 0
	for i := range recs {
		if recs[i].PID != p.ID() {
			continue
		}
		if err := ApplyRecord(p, &recs[i]); err != nil {
			return n, fmt.Errorf("core: replaying %v record at %v slot %d: %w",
				recs[i].Tag, recs[i].PID, recs[i].Slot, err)
		}
		n++
	}
	return n, nil
}

// refReplay is the old applyClean without its counters: the cut, the
// error found at the cut, then the apply of what precedes it.
func refReplay(p *mm.Partition, buf []byte) (applied, clean int, cut, err error) {
	clean = refValidPrefix(buf)
	if clean < len(buf) {
		_, _, cut = wal.Decode(buf[clean:])
	}
	applied, err = refApplyRecords(p, buf[:clean])
	return applied, clean, cut, err
}

const refPartSize = 4 << 10

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameReplay replays buf both ways onto fresh partitions and reports
// the first difference.
func sameReplay(pid addr.PartitionID, buf []byte) error {
	refP, newP := mm.NewPartition(pid, refPartSize), mm.NewPartition(pid, refPartSize)
	refN, refClean, refCut, refErr := refReplay(refP, buf)
	newN, newClean, newCut, newErr := replayPrefix(newP, buf)
	switch {
	case errText(refErr) != errText(newErr):
		return fmt.Errorf("apply error %v, reference %v", newErr, refErr)
	case refN != newN:
		return fmt.Errorf("applied %d, reference %d", newN, refN)
	case !bytes.Equal(refP.Snapshot(), newP.Snapshot()):
		return fmt.Errorf("images differ after %d records", newN)
	case refErr != nil:
		// An apply failure ends the one-pass walk before it reaches the
		// cut the reference found up front; both replays are abandoned.
		return nil
	case refClean != newClean:
		return fmt.Errorf("cut at %d, reference %d", newClean, refClean)
	case errText(refCut) != errText(newCut):
		return fmt.Errorf("cut error %v, reference %v", newCut, refCut)
	}
	return nil
}

// randomStream encodes n records of every tag over a few slots, some of
// them addressed to another partition.
func randomStream(rng *rand.Rand, pid addr.PartitionID, n int) []byte {
	tags := []wal.Tag{
		wal.TagRelInsert, wal.TagRelDelete, wal.TagRelUpdate, wal.TagRelWrite,
		wal.TagIdxInsert, wal.TagIdxDelete, wal.TagIdxUpdate, wal.TagIdxWrite,
		wal.TagPartAlloc, wal.TagPartFree,
	}
	var buf []byte
	for i := 0; i < n; i++ {
		r := wal.Record{
			Tag: tags[rng.Intn(len(tags))], Txn: uint64(rng.Intn(1 << 20)),
			PID: pid, Slot: addr.Slot(rng.Intn(6)),
		}
		if rng.Intn(8) == 0 {
			r.PID.Part++ // foreign: decoded, never applied
		}
		switch r.Tag {
		case wal.TagRelWrite, wal.TagIdxWrite:
			r.Off = uint16(rng.Intn(24))
			r.Data = make([]byte, 1+rng.Intn(8))
		case wal.TagRelInsert, wal.TagRelUpdate, wal.TagIdxInsert, wal.TagIdxUpdate:
			r.Data = make([]byte, rng.Intn(48))
		}
		rng.Read(r.Data)
		buf = r.Encode(buf)
	}
	return buf
}

func TestOnePassReplayEqualsTwoPass(t *testing.T) {
	pid := addr.PartitionID{Segment: 7, Part: 3}
	rng := rand.New(rand.NewSource(24))
	for round := 0; round < 40; round++ {
		stream := randomStream(rng, pid, 1+rng.Intn(24))
		if err := sameReplay(pid, stream); err != nil {
			t.Fatalf("round %d, whole stream: %v", round, err)
		}
		for cut := 0; cut < len(stream); cut++ {
			if err := sameReplay(pid, stream[:cut]); err != nil {
				t.Fatalf("round %d, truncated to %d of %d: %v", round, cut, len(stream), err)
			}
		}
		for flips := 0; flips < 16; flips++ {
			rotted := append([]byte(nil), stream...)
			at := rng.Intn(len(rotted))
			rotted[at] ^= 1 << rng.Intn(8)
			if err := sameReplay(pid, rotted); err != nil {
				t.Fatalf("round %d, bit flipped in byte %d: %v", round, at, err)
			}
		}
	}
}

// An 8 KB page of in-place writes, the commonest record of an update
// workload, onto a partition that holds their targets.
func TestReplayPrefixAllocatesNothing(t *testing.T) {
	pid := addr.PartitionID{Segment: 7, Part: 3}
	p := mm.NewPartition(pid, refPartSize)
	for slot := addr.Slot(0); slot < 4; slot++ {
		mustOK(t, p.InsertAt(slot, make([]byte, 64)))
	}
	var page []byte
	for i := 0; len(page) < 8<<10; i++ {
		page = (&wal.Record{Tag: wal.TagRelWrite, Txn: uint64(i), PID: pid,
			Slot: addr.Slot(i % 4), Off: uint16(i % 56), Data: []byte("12345678")}).Encode(page)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, clean, cut, err := replayPrefix(p, page); err != nil || cut != nil || clean != len(page) {
			t.Fatalf("clean %d of %d, cut %v, err %v", clean, len(page), cut, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("replaying a clean 8 KB page allocates %.0f times, want 0", allocs)
	}
}

// walCorpus reads the wal package's committed fuzz corpus, so the two
// packages' targets start from the same damaged records.
func walCorpus(f *testing.F) [][]byte {
	files, err := filepath.Glob("../wal/testdata/fuzz/FuzzDecodeRecord/*")
	if err != nil || len(files) == 0 {
		f.Fatalf("wal corpus: %d files, %v", len(files), err)
	}
	var out [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			f.Fatalf("%s: not a one-argument corpus file", name)
		}
		lit, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		out = append(out, []byte(lit))
	}
	return out
}

// FuzzReplayPrefix holds the one-pass replay to the two-pass reference
// on arbitrary bytes. The partition is the first record's, when there
// is one, so that the stream's records are applied and not skipped.
func FuzzReplayPrefix(f *testing.F) {
	for _, seed := range walCorpus(f) {
		f.Add(seed)
	}
	rng := rand.New(rand.NewSource(1))
	stream := randomStream(rng, addr.PartitionID{Segment: 2, Part: 1}, 12)
	f.Add(stream)
	f.Add(stream[:len(stream)-3])
	f.Fuzz(func(t *testing.T, buf []byte) {
		pid := addr.PartitionID{Segment: 2, Part: 1}
		if r, _, err := wal.Decode(buf); err == nil {
			pid = r.PID
		}
		if err := sameReplay(pid, buf); err != nil {
			t.Fatal(err)
		}
	})
}
