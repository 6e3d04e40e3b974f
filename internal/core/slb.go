package core

// The Stable Log Buffer (§2.3.1): one latch, one map of uncommitted
// chains and one committed list, in stable memory.
//
// A transaction holds its own chain (txnChain, the txn.RedoChain it
// was handed at begin), so writing a record takes no latch: only block
// allocation, inside the stable-memory pool, is synchronised (§2.3.1).
// The buffer's latch is taken only at begin, commit and abort, and by
// the sorter to read or pop the committed list's head.
//
// Commit is instant and has no group: under the latch a committer
// takes the next number of the commit sequence, one word in stable
// memory, and appends its chain to the committed list. That append is
// both the commit point and the acknowledgement. A store into stable
// memory has no flush to amortise, so nothing waits for other
// committers.
//
// The list is the commit order. The latch that takes a number also
// appends the chain, so the list is in number order and the recovery
// CPU and restart sort it from the head. Strict two-phase locking
// makes that order safe: locks are released only after a chain's
// Commit returns, so a transaction that conflicts with T takes its
// number after T is listed, and a larger one. A crash between taking a
// number and listing the chain (the "slb.stamp" fault point) leaves a
// gap in the sequence: that transaction was never acknowledged, and
// nothing waits on the number. See docs/LOGGING.md for the end-to-end
// walk-through.

import (
	"fmt"
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
	// seq is the chain's commit number, stamped at commit; next links
	// the committed list.
	seq  uint64
	next *txnChain
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

// slbState is the Stable Log Buffer: the REDO chains of running
// transactions and the committed list, plus the commit sequence. It
// lives in stable memory and survives crashes. (The §2.4 checkpoint
// communication buffer is the bins' ckptTrigger in the Stable Log
// Tail.)
type slbState struct {
	mu          sync.Mutex
	uncommitted map[uint64]*txnChain
	// head and tail bound the committed list, linked through
	// txnChain.next. A chain takes its number under mu, in the same
	// hold that appends it, so the list is in number order and head is
	// the oldest unsorted chain.
	head, tail *txnChain
	// seq is the last commit number taken (the first is 1). It survives
	// crashes, so numbers never repeat across restarts.
	seq atomic.Uint64
	// gen counts the handles attached to the buffer; a handle whose gen
	// is not the latest belongs to a dead instance (slb.release).
	gen atomic.Uint64
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
	// §2.3.1); commits and aborts count chains that committed or were
	// aborted.
	writeLatency *metrics.Histogram
	commits      *metrics.Counter
	aborts       *metrics.Counter
	// tracer emits slb-append events.
	tracer *trace.Tracer
}

// newSLB attaches to (or creates) the stable buffer.
func newSLB(mem *stablemem.Memory, cfg Config) (*slb, error) {
	if cfg.GroupCommitInterval != 0 {
		return nil, fmt.Errorf("core: GroupCommitInterval is %v; it must be 0, commit has no group", cfg.GroupCommitInterval)
	}
	st, _ := mem.Root(slbRootKey).(*slbState)
	if st == nil {
		st = &slbState{uncommitted: make(map[uint64]*txnChain)}
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

func nudge(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// BeginTxn implements txn.RedoSink: it opens the transaction's chain.
// A dead instance's chain stays out of the buffer's map, where it could
// shadow a live transaction of the same ID.
func (s *slb) BeginTxn(id uint64) txn.RedoChain {
	c := chainPool.Get().(*txnChain)
	c.s, c.id = s, id
	if st := s.st; s.gen == st.gen.Load() {
		st.mu.Lock()
		st.uncommitted[id] = c
		st.mu.Unlock()
	}
	return c
}

// WriteRecord implements txn.RedoChain: encode the record straight into
// the tail of the chain's last block, allocating blocks on demand from
// the stable-memory pool. It takes no latch, and logging a record
// allocates nothing. A dead instance's chain refuses the write before
// it can draw a block.
func (c *txnChain) WriteRecord(rec *wal.Record) error {
	s := c.s
	start := time.Now()
	defer s.writeLatency.ObserveSince(start)
	if s.gen != s.st.gen.Load() {
		return fmt.Errorf("core: txn %d's SLB chain belongs to a crashed instance", c.id)
	}
	n := rec.EncodedSize()
	// Fault point "slb.append": one hit per record. A crash act with
	// nothing applied (crash-before, ioerr) fails the write cleanly;
	// crash-after lets the record land and then halts; a mutation act
	// silently rots the record's bytes on the way into stable memory —
	// the sorter's CRC check must quarantine it.
	dec := s.inj.Check(fault.PointSLBAppend, n)
	if dec.Err != nil && dec.ApplyBytes(n) == 0 {
		return fmt.Errorf("core: SLB append: %w", dec.Err)
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
	s.tracer.Emit(trace.Event{
		Kind: trace.KindSLBAppend, Txn: rec.Txn,
		Seg: uint64(rec.PID.Segment), Part: uint64(rec.PID.Part),
		Arg: uint64(n),
	})
	if dec.Err != nil {
		return fmt.Errorf("core: SLB append: %w", dec.Err)
	}
	return nil
}

// Commit implements txn.RedoChain and is the transaction's commit
// point (§2.3.1's instant commit): under the buffer's latch the chain
// takes the next commit number and moves from the uncommitted map to
// the tail of the committed list. Once listed the transaction is
// durable, and Commit returns. The caller must not use the chain
// again: the sorter may recycle it as soon as it is listed.
func (c *txnChain) Commit() error {
	s, st := c.s, c.s.st
	st.mu.Lock()
	if st.uncommitted[c.id] != c {
		st.mu.Unlock()
		return fmt.Errorf("core: commit of unknown txn %d", c.id)
	}
	delete(st.uncommitted, c.id)
	if len(c.blocks) == 0 {
		// Read-only transaction: nothing to log.
		st.mu.Unlock()
		s.release(c)
		s.commits.Inc()
		return nil
	}
	c.seq = st.seq.Add(1)
	// Fault point "slb.stamp": a crash here leaves the number unlisted,
	// a gap nothing waits on, and the commit unacknowledged.
	if dec := s.inj.Check(fault.PointSLBStamp, 0); dec.Err != nil {
		st.mu.Unlock()
		err := fmt.Errorf("core: stamping txn %d: %w", c.id, dec.Err)
		s.release(c)
		return err
	}
	if st.tail == nil {
		st.head = c
	} else {
		st.tail.next = c
	}
	st.tail = c
	st.mu.Unlock()
	s.mem.ChargeWrite(8) // the commit number's stable word
	nudge(s.commitCh)
	s.commits.Inc()
	return nil
}

// Abort implements txn.RedoChain: the transaction's UNDO has already
// rolled memory back; the REDO chain is simply discarded, its blocks
// back to the pool. A chain restart already discarded is left alone.
func (c *txnChain) Abort() {
	s, st := c.s, c.s.st
	s.aborts.Inc()
	st.mu.Lock()
	mine := st.uncommitted[c.id] == c
	if mine {
		delete(st.uncommitted, c.id)
	}
	st.mu.Unlock()
	if mine {
		s.release(c)
	}
}

// peekOldest returns the head of the committed list, the oldest
// unsorted chain, if its commit number is no greater than upTo, a
// sequence value the caller read; otherwise nil. The chain stays listed
// until markSorted, so a crash mid-sort cannot lose committed records:
// the restart drain re-sorts the whole chain and lenient replay absorbs
// the duplicated prefix.
func (s *slb) peekOldest(upTo uint64) *txnChain {
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if c := st.head; c != nil && c.seq <= upTo {
		return c
	}
	return nil
}

// markSorted pops a fully sorted chain off the head of the committed
// list and returns its stable blocks to the pool. Only the caller that
// popped the chain releases it: another drain that sorted the same
// head finds it gone.
func (s *slb) markSorted(c *txnChain) {
	st := s.st
	st.mu.Lock()
	popped := st.head == c
	if popped {
		st.head, c.next = c.next, nil
		if st.head == nil {
			st.tail = nil
		}
	}
	st.mu.Unlock()
	if popped {
		s.release(c)
	}
}

// discardUncommitted drops every uncommitted chain; called on restart,
// since transactions in flight at the crash are implicitly aborted
// (their effects existed only in the lost volatile memory).
func (s *slb) discardUncommitted() {
	st := s.st
	st.mu.Lock()
	chains := st.uncommitted
	st.uncommitted = make(map[uint64]*txnChain)
	st.mu.Unlock()
	for _, c := range chains {
		c.drop()
	}
}

// busy reports whether the committed list holds any chain.
func (s *slb) busy() bool {
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.head != nil
}
