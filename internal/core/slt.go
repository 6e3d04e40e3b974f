package core

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"mmdb/internal/addr"
	"mmdb/internal/catalog"
	"mmdb/internal/metrics"
	"mmdb/internal/simdisk"
	"mmdb/internal/stablemem"
)

// sltRootKey names the Stable Log Tail in the stable memory root.
const sltRootKey = "mmdb-slt"

// binInfoBytes is the stable memory reserved for a bin's information
// block — partition address, update count, checkpoint state — which
// §2.3.3 puts "on the order of 50 bytes". The page list is not charged:
// it replaces §2.3.3's page chain and N-entry directory, and is as long
// as the partition's log since its last checkpoint.
const binInfoBytes = 64

// bin is a partition bin in the Stable Log Tail: the information block
// (partition address, update count, the log pages written since the
// last checkpoint) plus, while the partition is active, the much larger
// current log page buffer (§2.3.3).
type bin struct {
	pid addr.PartitionID

	// updateCount is the number of log records accumulated since the
	// partition's last checkpoint; it triggers update-count
	// checkpoints.
	updateCount int

	// pages lists the flushed, not-yet-superseded log pages of the
	// partition in write order: the memory-recovery set, and the whole
	// of the log page directory, so no page carries a chain or a
	// directory of its own. pages[0] is the "LSN of First Log Page"; the
	// window pass reads it (slt.windowLocked).
	pages []simdisk.LSN

	// cur is the current log page buffer; nil while the partition is
	// inactive. curCount counts its records.
	cur      *stablemem.Block
	curCount int

	// checked is the sltState.boot of the incarnation that last made
	// sure cur ends on a record boundary (checkTailLocked). The field
	// survives a crash, the mark does not: the next incarnation counts
	// one further, so every bin reads as unchecked again, unvisited.
	checked uint64

	// Checkpoint bookkeeping, the §2.4 communication buffer's stable
	// half. ckptTrigger is the trigger that requested a checkpoint of the
	// partition (zero: none requested); it stays set while the checkpoint
	// runs and is lowered when it finishes or is abandoned.
	// fencePages/fenceUpdates snapshot the pre-checkpoint prefix at the
	// drain barrier; the prefix is dropped from the memory-recovery set
	// when the checkpoint finishes (§2.4 step 7).
	ckptTrigger  ckptTrigger
	fenceActive  bool
	fencePages   int
	fenceUpdates int
}

// ckptTrigger records why a checkpoint was requested.
type ckptTrigger uint8

const (
	trigUpdateCount ckptTrigger = iota + 1
	trigAge
)

// maxCkptAttempts bounds the attempts at one checkpoint request before
// it is abandoned (it re-arms via the normal triggers).
const maxCkptAttempts = 5

func (b *bin) firstLSN() simdisk.LSN {
	if len(b.pages) == 0 {
		return simdisk.NilLSN
	}
	return b.pages[0]
}

// sltState is the Stable Log Tail: the partition bin table and the
// second copy of the well-known catalog root (§2.5). It survives
// crashes in stable memory.
type sltState struct {
	mu   sync.Mutex
	bins map[addr.PartitionID]*bin
	root *catalog.Root
	// lastArchived is the highest LSN already rolled to tape.
	lastArchived simdisk.LSN
	// boot counts the incarnations that have attached; see bin.checked.
	boot uint64
}

func newSLTState() *sltState {
	return &sltState{bins: make(map[addr.PartitionID]*bin), root: &catalog.Root{NextRelID: catalog.FirstUserRelID, NextSeg: uint32(addr.FirstUserSegment)}}
}

// slt is the volatile handle over the stable sltState.
type slt struct {
	st  *sltState
	mem *stablemem.Memory
	// ckptQueue is the claim order of the checkpoint-pending bins: one
	// entry per bin with a ckptTrigger, appended when the trigger is
	// raised and removed when it is lowered, both under st.mu. The head
	// is the request the checkpointer is serving. Volatile: rebuilt from
	// the bins, in PID order, on restart.
	ckptQueue []ckptClaim
	ckptCh    chan struct{} // nudges the checkpointer
	// fold is the page flush's change-accumulation scratch, under st.mu.
	fold folder
}

// ckptClaim is one checkpoint request in the claim order.
type ckptClaim struct {
	pid      addr.PartitionID
	attempts int
}

func newSLT(mem *stablemem.Memory) *slt {
	st, _ := mem.Root(sltRootKey).(*sltState)
	if st == nil {
		st = newSLTState()
		mem.SetRoot(sltRootKey, st)
	}
	s := &slt{st: st, mem: mem, ckptCh: make(chan struct{}, 1)}
	// Rebuild the volatile claim order from stable bins. A fence belongs
	// to a checkpoint transaction, and none survives into a new
	// incarnation.
	st.mu.Lock()
	st.boot++
	var pending []addr.PartitionID
	for _, b := range st.bins {
		if b.ckptTrigger != 0 {
			pending = append(pending, b.pid)
		}
		b.fenceActive, b.fencePages, b.fenceUpdates = false, 0, 0
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].Less(pending[j]) })
	for _, pid := range pending {
		s.ckptQueue = append(s.ckptQueue, ckptClaim{pid: pid})
	}
	st.mu.Unlock()
	if len(pending) > 0 {
		nudge(s.ckptCh)
	}
	return s
}

// raiseLocked requests a checkpoint of b's partition unless one is
// already pending, reporting whether it did. SLT mutex held.
func (s *slt) raiseLocked(b *bin, trig ckptTrigger) bool {
	if b.ckptTrigger != 0 {
		return false
	}
	b.ckptTrigger = trig
	s.ckptQueue = append(s.ckptQueue, ckptClaim{pid: b.pid})
	nudge(s.ckptCh)
	return true
}

// lowerLocked retires b's checkpoint request. SLT mutex held.
func (s *slt) lowerLocked(b *bin) {
	b.ckptTrigger = 0
	if i := s.claimLocked(b.pid); i >= 0 {
		s.ckptQueue = append(s.ckptQueue[:i], s.ckptQueue[i+1:]...)
	}
}

// claimLocked returns the index of pid's entry in the claim order, or
// -1. SLT mutex held.
func (s *slt) claimLocked(pid addr.PartitionID) int {
	for i, c := range s.ckptQueue {
		if c.pid == pid {
			return i
		}
	}
	return -1
}

// nextCkpt returns the request at the head of the claim order. The
// entry stays there until the checkpoint finishes or is abandoned.
func (s *slt) nextCkpt() (addr.PartitionID, ckptTrigger, bool) {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	if len(s.ckptQueue) == 0 {
		return addr.PartitionID{}, 0, false
	}
	pid := s.ckptQueue[0].pid
	return pid, s.st.bins[pid].ckptTrigger, true
}

// failCkpt abandons the fence of a failed checkpoint attempt and counts
// the attempt; the request stays queued for a retry until
// maxCkptAttempts, when it is lowered and counted in abandoned. The
// count is taken under the SLT mutex, like a completion's, so a WaitIdle
// caller that finds no request pending also finds it counted.
func (s *slt) failCkpt(pid addr.PartitionID, abandoned *metrics.Counter) {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	b, ok := s.st.bins[pid]
	if !ok {
		return // dropBin already retired the request
	}
	b.fenceActive, b.fencePages, b.fenceUpdates = false, 0, 0
	i := s.claimLocked(pid)
	if i < 0 {
		return
	}
	s.ckptQueue[i].attempts++
	if s.ckptQueue[i].attempts < maxCkptAttempts {
		return
	}
	s.lowerLocked(b)
	abandoned.Inc()
}

// windowLocked is the window pass's one scan over the bins. floor is the
// minimum first LSN, the oldest log page memory recovery still needs
// (NilLSN: none); it is the head of §2.3.3's First LSN list, computed
// where it is used. aged are the bins whose first page is at or below
// ageLimit and that have no checkpoint pending, oldest first; at ageLimit
// NilLSN there are none, and the scan only finds the floor. SLT mutex
// held.
func (s *slt) windowLocked(ageLimit simdisk.LSN) (floor simdisk.LSN, aged []*bin) {
	for _, b := range s.st.bins {
		f := b.firstLSN()
		if f == simdisk.NilLSN {
			continue
		}
		if floor == simdisk.NilLSN || f < floor {
			floor = f
		}
		if f <= ageLimit && b.ckptTrigger == 0 {
			aged = append(aged, b)
		}
	}
	slices.SortFunc(aged, func(a, b *bin) int { return cmp.Compare(a.firstLSN(), b.firstLSN()) })
	return floor, aged
}

// pending reports whether any bin is checkpoint-pending.
func (s *slt) pending() bool {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return len(s.ckptQueue) > 0
}

// binForLocked returns the partition's bin, allocating its permanent
// information block on first use (the paper assumes each partition has
// a small permanent entry in the partition bin table).
func (s *slt) binForLocked(pid addr.PartitionID) (*bin, error) {
	if b, ok := s.st.bins[pid]; ok {
		return b, nil
	}
	if err := s.mem.Reserve(binInfoBytes); err != nil {
		return nil, err
	}
	b := &bin{pid: pid}
	s.st.bins[pid] = b
	return b, nil
}

// dropBin removes a freed partition's bin entirely, with any checkpoint
// request it had pending, which it counts in abandoned (under the SLT
// mutex, as failCkpt does).
func (s *slt) dropBin(pid addr.PartitionID, abandoned *metrics.Counter) {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	b, ok := s.st.bins[pid]
	if !ok {
		return
	}
	if b.ckptTrigger != 0 {
		abandoned.Inc()
	}
	s.lowerLocked(b)
	delete(s.st.bins, pid)
	if b.cur != nil {
		b.cur.Recycle()
	}
	s.mem.Release(binInfoBytes)
}

// archivedTo returns the highest LSN rolled into the archive and
// dropped from the log disks.
func (s *slt) archivedTo() simdisk.LSN {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return s.st.lastArchived
}

// Root accessors: the root is duplicated in the SLT (and SLB region)
// per §2.5; we keep the authoritative copy here and write it to the log
// disk periodically.
func (s *slt) rootCopy() *catalog.Root {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return s.st.root.Clone()
}

func (s *slt) updateRoot(fn func(r *catalog.Root)) *catalog.Root {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	fn(s.st.root)
	return s.st.root.Clone()
}
