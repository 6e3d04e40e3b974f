package core

// The Stable Log Buffer (§2.3.1), sharded into per-core log streams
// that one commit sequence orders.
//
// A transaction holds its own chain (txnChain, the txn.RedoChain it
// was handed at begin), so writing a record takes no latch: only block
// allocation, inside the stable-memory pool, is synchronised (§2.3.1).
// Each stream has its own latch, uncommitted-chain map and committed
// list; a transaction is affinitised to the stream txnID % N, and its
// stream's latch is taken only at begin, commit and abort.
//
// Commit is instant and has no group: under its stream's latch a
// committer takes the next number of the commit sequence, one word in
// stable memory, and appends its chain to the stream's committed list.
// That append is both the commit point and the acknowledgement. A
// store into stable memory has no flush to amortise, so nothing waits
// for other committers.
//
// The sorter and restart merge the streams' lists by commit number.
// Strict two-phase locking makes that order safe: locks are released
// only after a chain's Commit returns, so a transaction that conflicts
// with T takes its number after T is listed, and a larger one. Two
// chains listed out of number order were committing at once, so their
// write sets are disjoint and either replay order gives the same state.
// A crash between taking a number and listing the chain (the
// "slb.stamp" fault point) leaves a gap in the sequence: that
// transaction was never acknowledged, and the merge waits on no number.
// See docs/LOGGING.md for the end-to-end walk-through.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mmdb/internal/fault"
	"mmdb/internal/metrics"
	"mmdb/internal/stablemem"
	"mmdb/internal/trace"
	"mmdb/internal/txn"
	"mmdb/internal/wal"
)

// slbRootKey names the Stable Log Buffer in the stable memory root.
const slbRootKey = "mmdb-slb"

// txnChain is a transaction's chain of SLB blocks, and the
// txn.RedoChain its transaction writes through. A block is dedicated to
// a single transaction for its lifetime, so no critical section
// protects record writing — only block allocation (§2.3.1).
type txnChain struct {
	s      *slb // the handle that opened the chain
	id     uint64
	blocks []*stablemem.Block
	// stream is the log stream the chain belongs to; seq is its commit
	// number, stamped at commit, and its place in the merge order.
	stream *logStream
	seq    uint64
}

// chainPool holds released txnChains, their block lists emptied but
// with their capacity kept, so beginning a transaction and growing its
// chain allocate nothing once the pool is warm.
var chainPool = sync.Pool{New: func() any { return new(txnChain) }}

// drop frees the chain's blocks without recycling them: restart's
// discard paths use it, because a dead instance's goroutine may still
// be appending to an uncommitted chain's last block. A dropped chain is
// never reused either.
func (c *txnChain) drop() {
	for _, b := range c.blocks {
		b.Free()
	}
	c.blocks = nil
}

// release returns the blocks of a chain that has left the SLB to the
// stable-memory pool, and the chain to chainPool, when s is the current
// instance's handle: then the caller was the chain's last holder. A
// dead instance's handle only drops them (§2.3.1: blocks come back to
// the free pool once their transaction is done with them).
func (s *slb) release(c *txnChain) {
	if s.gen != s.st.gen.Load() {
		c.drop()
		return
	}
	for i, b := range c.blocks {
		b.Recycle()
		c.blocks[i] = nil
	}
	*c = txnChain{blocks: c.blocks[:0]}
	chainPool.Put(c)
}

// logStream is one per-core stream of the sharded SLB. It lives in
// stable memory: the committed list survives a crash.
type logStream struct {
	id int
	mu sync.Mutex

	uncommitted map[uint64]*txnChain
	// committed is ordered by commit number: a chain takes its number
	// under mu, in the same hold that appends it, so the list is sorted
	// by construction and its head is the stream's oldest unsorted
	// chain.
	committed []*txnChain
}

// slbState is the Stable Log Buffer: per-stream REDO chain lists plus
// the commit sequence. It lives in stable memory and survives crashes.
// (The §2.4 checkpoint communication buffer is the bins' ckptTrigger in
// the Stable Log Tail.)
type slbState struct {
	streams []*logStream
	// seq is the last commit number taken (the first is 1). It survives
	// crashes, so numbers never repeat across restarts.
	seq atomic.Uint64
	// gen counts the handles attached to the buffer; a handle whose gen
	// is not the latest belongs to a dead instance (slb.release).
	gen atomic.Uint64
}

// newSLBState builds a fresh buffer with n streams.
func newSLBState(n int) *slbState {
	st := &slbState{streams: make([]*logStream, n)}
	for i := range st.streams {
		st.streams[i] = &logStream{
			id:          i,
			uncommitted: make(map[uint64]*txnChain),
		}
	}
	return st
}

// slb is the volatile handle the running system uses to operate on the
// stable slbState; it carries the config, the sorter's nudge channel
// and the instruments, which do not survive a crash.
type slb struct {
	st       *slbState
	gen      uint64 // st.gen when this handle attached
	mem      *stablemem.Memory
	blockSz  int
	inj      *fault.Injector
	commitCh chan struct{} // nudges the sorter

	// Instruments, all nil-safe: writeLatency observes each
	// WriteRecord (the main-CPU cost of logging one REDO record,
	// §2.3.1); streamRecords one counter per stream; commits and
	// aborts count chains that committed or were aborted.
	writeLatency  *metrics.Histogram
	streamRecords []*metrics.Counter
	commits       *metrics.Counter
	aborts        *metrics.Counter
	// tracer emits slb-append events.
	tracer *trace.Tracer
}

// newSLB attaches to (or creates) the stable buffer. The stream count
// comes from cfg.LogStreams (≤ 0 means GOMAXPROCS) when the buffer is
// created; a surviving buffer keeps the count it was made with, empty
// or not, since its chains' stream affinity (txnID % N) is fixed.
func newSLB(mem *stablemem.Memory, cfg Config) (*slb, error) {
	if cfg.GroupCommitInterval != 0 {
		return nil, fmt.Errorf("core: GroupCommitInterval is %v; it must be 0, commit has no group", cfg.GroupCommitInterval)
	}
	st, _ := mem.Root(slbRootKey).(*slbState)
	if st == nil {
		n := cfg.LogStreams
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		st = newSLBState(n)
		mem.SetRoot(slbRootKey, st)
	}
	return &slb{
		st:       st,
		gen:      st.gen.Add(1),
		mem:      mem,
		blockSz:  cfg.SLBBlockSize,
		inj:      cfg.FaultInjector,
		commitCh: make(chan struct{}, 1),
	}, nil
}

// streams returns the attached buffer's stream count (the resolved
// value, which can differ from cfg.LogStreams when a buffer survived
// with a different count).
func (s *slb) streams() int { return len(s.st.streams) }

// streamFor is the commit-path affinity function.
func (s *slb) streamFor(txnID uint64) *logStream {
	return s.st.streams[txnID%uint64(len(s.st.streams))]
}

func nudge(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// BeginTxn implements txn.RedoSink: it opens the transaction's chain
// on its stream. A dead instance's chain stays out of the stream's map,
// where it could shadow a live transaction of the same ID.
func (s *slb) BeginTxn(id uint64) txn.RedoChain {
	ls := s.streamFor(id)
	c := chainPool.Get().(*txnChain)
	c.s, c.id, c.stream = s, id, ls
	if s.gen == s.st.gen.Load() {
		ls.mu.Lock()
		ls.uncommitted[id] = c
		ls.mu.Unlock()
	}
	return c
}

// WriteRecord implements txn.RedoChain: encode the record straight into
// the tail of the chain's last block, allocating blocks on demand from
// the stable-memory pool. It takes no latch, and logging a record
// allocates nothing. A dead instance's chain refuses the write before
// it can draw a block.
func (c *txnChain) WriteRecord(rec *wal.Record) error {
	s, ls := c.s, c.stream
	start := time.Now()
	defer s.writeLatency.ObserveSince(start)
	if s.gen != s.st.gen.Load() {
		return fmt.Errorf("core: txn %d's SLB chain belongs to a crashed instance", c.id)
	}
	n := rec.EncodedSize()
	// Fault point "slb.append": one hit per record, per stream. A
	// crash act with nothing applied (crash-before, ioerr) fails the
	// write cleanly; crash-after lets the record land and then halts;
	// a mutation act silently rots the record's bytes on the way into
	// stable memory — the sorter's CRC check must quarantine it.
	dec := s.inj.Check(fault.PointSLBAppend, n)
	if dec.Err != nil && dec.ApplyBytes(n) == 0 {
		return fmt.Errorf("core: SLB stream %d append: %w", ls.id, dec.Err)
	}
	var rotted []byte // the damaged encoding, which lands instead
	if dec.Mutated() {
		rotted = dec.MutateBytes(rec.Encode(nil))
		n = len(rotted)
	}
	if k := len(c.blocks); k == 0 || c.blocks[k-1].Remaining() < n {
		// Oversized records (e.g. large index directory nodes) get a
		// dedicated block; the paper handles long entities with a
		// separate mechanism, we simply size the block to fit.
		b, err := s.mem.NewBlock(max(s.blockSz, n))
		if err != nil {
			return fmt.Errorf("core: stable log buffer: %w", err)
		}
		c.blocks = append(c.blocks, b)
	}
	blk := c.blocks[len(c.blocks)-1]
	var err error
	if rotted != nil {
		err = blk.Append(rotted)
	} else {
		err = blk.AppendWith(n, func(dst []byte) { rec.EncodeTo(dst) })
	}
	if err != nil {
		return fmt.Errorf("core: SLB block append: %w", err)
	}
	if len(s.streamRecords) > 0 {
		s.streamRecords[ls.id].Inc()
	}
	s.tracer.Emit(trace.Event{
		Kind: trace.KindSLBAppend, Txn: rec.Txn,
		Seg: uint64(rec.PID.Segment), Part: uint64(rec.PID.Part),
		Arg: uint64(n), Arg2: uint64(ls.id),
	})
	if dec.Err != nil {
		return fmt.Errorf("core: SLB stream %d append: %w", ls.id, dec.Err)
	}
	return nil
}

// Commit implements txn.RedoChain and is the transaction's commit
// point (§2.3.1's instant commit): under the stream latch the chain
// takes the next commit number and moves from the uncommitted map to
// its stream's committed list. Once listed the transaction is durable,
// and Commit returns. The caller must not use the chain again: the
// sorter may recycle it as soon as it is listed.
func (c *txnChain) Commit() error {
	s, ls := c.s, c.stream
	ls.mu.Lock()
	if ls.uncommitted[c.id] != c {
		ls.mu.Unlock()
		return fmt.Errorf("core: commit of unknown txn %d", c.id)
	}
	delete(ls.uncommitted, c.id)
	if len(c.blocks) == 0 {
		// Read-only transaction: nothing to log.
		ls.mu.Unlock()
		s.release(c)
		s.commits.Inc()
		return nil
	}
	c.seq = s.st.seq.Add(1)
	// Fault point "slb.stamp": a crash here leaves the number unlisted,
	// a gap the merge never waits on, and the commit unacknowledged.
	if dec := s.inj.Check(fault.PointSLBStamp, 0); dec.Err != nil {
		ls.mu.Unlock()
		err := fmt.Errorf("core: stamping txn %d on SLB stream %d: %w", c.id, ls.id, dec.Err)
		s.release(c)
		return err
	}
	ls.committed = append(ls.committed, c)
	ls.mu.Unlock()
	s.mem.ChargeWrite(8) // the commit number's stable word
	nudge(s.commitCh)
	s.commits.Inc()
	return nil
}

// Abort implements txn.RedoChain: the transaction's UNDO has already
// rolled memory back; the REDO chain is simply discarded, its blocks
// back to the pool. A chain restart already discarded is left alone.
func (c *txnChain) Abort() {
	s, ls := c.s, c.stream
	s.aborts.Inc()
	ls.mu.Lock()
	mine := ls.uncommitted[c.id] == c
	if mine {
		delete(ls.uncommitted, c.id)
	}
	ls.mu.Unlock()
	if mine {
		s.release(c)
	}
}

// peekOldest returns the committed, unsorted chain with the smallest
// commit number no greater than upTo, a sequence value the caller read,
// without removing it, or nil. Each stream's list is in number order,
// so that chain is a list head. A number up to upTo was taken before
// upTo was read, under its stream's latch and in the hold that lists
// the chain, so once this takes that latch the chain is listed or never
// will be. The chain stays on its stream's list until markSorted, so a
// crash mid-sort cannot lose committed records: the restart drain
// re-sorts the whole chain and lenient replay absorbs the duplicated
// prefix.
func (s *slb) peekOldest(upTo uint64) *txnChain {
	var best *txnChain
	for _, ls := range s.st.streams {
		ls.mu.Lock()
		if len(ls.committed) > 0 {
			if c := ls.committed[0]; c.seq <= upTo && (best == nil || c.seq < best.seq) {
				best = c
			}
		}
		ls.mu.Unlock()
	}
	return best
}

// markSorted removes a fully sorted chain from its stream's committed
// list and returns its stable blocks to the pool. Only the caller that
// removed the chain releases it.
func (s *slb) markSorted(c *txnChain) {
	ls := c.stream
	removed := false
	ls.mu.Lock()
	for i, x := range ls.committed {
		if x == c {
			ls.committed = slices.Delete(ls.committed, i, i+1) // clears the vacated slot
			removed = true
			break
		}
	}
	ls.mu.Unlock()
	if removed {
		s.release(c)
	}
}

// discardUncommitted drops every uncommitted chain on every stream;
// called on restart, since transactions in flight at the crash are
// implicitly aborted (their effects existed only in the lost volatile
// memory).
func (s *slb) discardUncommitted() {
	var chains []*txnChain
	for _, ls := range s.st.streams {
		ls.mu.Lock()
		for _, c := range ls.uncommitted {
			chains = append(chains, c)
		}
		ls.uncommitted = make(map[uint64]*txnChain)
		ls.mu.Unlock()
	}
	for _, c := range chains {
		c.drop()
	}
}

// busy reports whether any stream still holds committed chains.
func (s *slb) busy() bool {
	for _, ls := range s.st.streams {
		ls.mu.Lock()
		n := len(ls.committed)
		ls.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}
