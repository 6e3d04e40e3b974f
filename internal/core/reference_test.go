package core

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/mm"
	"mmdb/internal/simdisk"
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

// The window pass as it was before it became one scan over the bins: a
// lazy min-heap of first LSNs (§2.3.3's First LSN list), pushed when a
// bin's first page is flushed and when a checkpoint finishes, rebuilt
// when the SLT attaches, and popped at every page flush as far as the
// grace region. Stale entries are refreshed against the bin. It is kept,
// unchanged, as the model TestWindowPassEqualsFirstLSNHeap holds
// slt.windowLocked to, over a mirror of the bins' first pages and
// triggers.

type refLSNEntry struct {
	lsn simdisk.LSN
	pid addr.PartitionID
}

type refLSNHeap []refLSNEntry

func (h refLSNHeap) Len() int           { return len(h) }
func (h refLSNHeap) Less(i, j int) bool { return h[i].lsn < h[j].lsn }
func (h refLSNHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refLSNHeap) Push(x any)        { *h = append(*h, x.(refLSNEntry)) }
func (h *refLSNHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

type refBin struct {
	pages []simdisk.LSN
	trig  ckptTrigger
}

func (b *refBin) firstLSN() simdisk.LSN {
	if len(b.pages) == 0 {
		return simdisk.NilLSN
	}
	return b.pages[0]
}

// refRaise is one checkpoint request: the partition and its trigger.
type refRaise struct {
	pid  addr.PartitionID
	trig ckptTrigger
}

type refWindow struct {
	bins      map[addr.PartitionID]*refBin
	firstList refLSNHeap
}

func (w *refWindow) bin(pid addr.PartitionID) *refBin {
	b := w.bins[pid]
	if b == nil {
		b = &refBin{}
		w.bins[pid] = b
	}
	return b
}

func (w *refWindow) raise(pid addr.PartitionID, trig ckptTrigger) []refRaise {
	if b := w.bin(pid); b.trig == 0 {
		b.trig = trig
		return []refRaise{{pid, trig}}
	}
	return nil
}

// attach rebuilds the volatile heap from the bins, as newSLT did.
func (w *refWindow) attach() {
	w.firstList = nil
	for pid, b := range w.bins {
		if f := b.firstLSN(); f != simdisk.NilLSN {
			heap.Push(&w.firstList, refLSNEntry{lsn: f, pid: pid})
		}
	}
}

// flush is flushBinPageLocked's part: the page joins the bin, then the
// old advanceWindowLocked's age loop runs. It returns the raises and the
// floor the old archiveLocked computed.
func (w *refWindow) flush(pid addr.PartitionID, lsn, tail, ageLimit simdisk.LSN) (raised []refRaise, floor simdisk.LSN) {
	b := w.bin(pid)
	if len(b.pages) == 0 {
		heap.Push(&w.firstList, refLSNEntry{lsn: lsn, pid: pid})
	}
	b.pages = append(b.pages, lsn)
	if tail < 1 {
		return nil, simdisk.NilLSN
	}
	var keep []refLSNEntry
	for w.firstList.Len() > 0 {
		e := heap.Pop(&w.firstList).(refLSNEntry)
		b := w.bins[e.pid]
		if b == nil || b.firstLSN() != e.lsn {
			if b != nil && b.firstLSN() != simdisk.NilLSN {
				keep = append(keep, refLSNEntry{lsn: b.firstLSN(), pid: e.pid})
			}
			continue
		}
		keep = append(keep, e)
		if e.lsn > ageLimit {
			break
		}
		raised = append(raised, w.raise(e.pid, trigAge)...)
	}
	for _, e := range keep {
		heap.Push(&w.firstList, e)
	}
	return raised, w.floor()
}

func (w *refWindow) floor() simdisk.LSN {
	floor := simdisk.NilLSN
	for _, b := range w.bins {
		if f := b.firstLSN(); f != simdisk.NilLSN && (floor == simdisk.NilLSN || f < floor) {
			floor = f
		}
	}
	return floor
}

// finish drops a finished checkpoint's fenced prefix and refreshes the
// bin's heap entry.
func (w *refWindow) finish(pid addr.PartitionID, fenced int) {
	b := w.bins[pid]
	b.pages = append([]simdisk.LSN(nil), b.pages[fenced:]...)
	b.trig = 0
	if f := b.firstLSN(); f != simdisk.NilLSN {
		heap.Push(&w.firstList, refLSNEntry{lsn: f, pid: pid})
	}
}

// newRaises reads the raises an operation made off the claim order, to
// which raiseLocked appends; nothing lowers a trigger during a flush or
// a manual request.
func newRaises(m *Manager, before int) []refRaise {
	m.slt.st.mu.Lock()
	defer m.slt.st.mu.Unlock()
	var out []refRaise
	for _, c := range m.slt.ckptQueue[before:] {
		out = append(out, refRaise{c.pid, m.slt.st.bins[c.pid].ckptTrigger})
	}
	return out
}

// The window pass is one scan over the bins. Random schedules of page
// flushes, manual requests, checkpoint finishes, dropped partitions and
// re-attaches (a new incarnation over the surviving SLT) drive the real
// pass and the First LSN heap it replaced; at every flush both must raise
// the same checkpoints in the same order and agree on the archive floor,
// and the archive must stay below it.
func TestWindowPassEqualsFirstLSNHeap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) {
			cfg := testCfg()
			cfg.LogWindowPages = 24
			cfg.GracePages = 5
			cfg.UpdateThreshold = 1 << 30 // only age and manual triggers
			h := newHarness(t, cfg)
			rng := rand.New(rand.NewSource(seed))
			ref := &refWindow{bins: make(map[addr.PartitionID]*refBin)}
			pids := make([]addr.PartitionID, 10)
			for i := range pids {
				pids[i] = addr.PartitionID{Segment: 5, Part: addr.PartitionNum(i)}
			}
			rec := func(pid addr.PartitionID) []byte {
				return (&wal.Record{Tag: wal.TagRelWrite, PID: pid, Off: 1, Data: []byte{7}}).Encode(nil)
			}
			var flushes, ages, finishes, drops, attaches int
			for op := 0; op < 3000; op++ {
				m := h.m
				pid := pids[rng.Intn(len(pids))]
				m.slt.st.mu.Lock()
				queued := len(m.slt.ckptQueue)
				b := m.slt.st.bins[pid]
				m.slt.st.mu.Unlock()
				switch r := rng.Intn(100); {
				case r < 75: // a page of pid's bin is flushed
					m.slt.st.mu.Lock()
					b, err := m.slt.binForLocked(pid)
					if err == nil && b.cur == nil {
						b.cur, err = m.hw.Stable.NewBlock(cfg.LogPageSize)
					}
					if err == nil {
						err = b.cur.Append(rec(pid))
					}
					if err == nil {
						err = m.flushBinPageLocked(b)
					}
					if err != nil {
						m.slt.st.mu.Unlock()
						t.Fatal(err)
					}
					lsn := b.pages[len(b.pages)-1]
					floor, _ := m.slt.windowLocked(simdisk.NilLSN)
					archived := m.slt.st.lastArchived
					m.slt.st.mu.Unlock()
					tail := m.hw.Log.NextLSN() - 1 - simdisk.LSN(cfg.LogWindowPages) + 1
					want, wantFloor := ref.flush(pid, lsn, tail, tail+simdisk.LSN(cfg.GracePages))
					got := newRaises(m, queued)
					if !slices.Equal(got, want) {
						t.Fatalf("op %d, flush of LSN %d: raised %v, the heap raised %v", op, lsn, got, want)
					}
					if tail >= 1 && floor != wantFloor {
						t.Fatalf("op %d, flush of LSN %d: floor %d, the heap's %d", op, lsn, floor, wantFloor)
					}
					if floor != simdisk.NilLSN && archived >= floor {
						t.Fatalf("op %d: archived to %d, past the floor %d", op, archived, floor)
					}
					flushes++
					ages += len(want)
				case r < 83: // a manual request
					m.RequestCheckpoint(pid)
					if got, want := newRaises(m, queued), ref.raise(pid, trigUpdateCount); !slices.Equal(got, want) {
						t.Fatalf("op %d, request of %v: raised %v, want %v", op, pid, got, want)
					}
				case r < 95: // a checkpoint of pid finishes
					if b == nil || len(b.pages) == 0 {
						continue
					}
					fenced := 1 + rng.Intn(len(b.pages))
					m.slt.st.mu.Lock()
					b.fenceActive, b.fencePages, b.fenceUpdates = true, fenced, 0
					m.slt.st.mu.Unlock()
					if err := m.finishCheckpoint(pid); err != nil {
						t.Fatal(err)
					}
					ref.finish(pid, fenced)
					finishes++
				case r < 98: // the partition is dropped
					m.dropBin(pid)
					delete(ref.bins, pid)
					drops++
				default: // a new incarnation attaches to the surviving SLT
					h.attach()
					ref.attach()
					attaches++
				}
			}
			t.Logf("%d flushes raised %d age checkpoints; %d finishes, %d drops, %d attaches; archived to %d",
				flushes, ages, finishes, drops, attaches, h.m.slt.archivedTo())
			if ages < 100 || finishes == 0 || drops == 0 || attaches == 0 {
				t.Fatal("the schedule does not reach every operation; it proves nothing")
			}
		})
	}
}
