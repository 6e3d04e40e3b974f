package core

// The Stable Log Buffer (§2.3.1), sharded into per-core log streams
// with epoch-based group commit.
//
// Each stream has its own latch, uncommitted-chain map and committed
// list, and allocates its blocks from the one stable-memory pool; a
// committing transaction is affinitised to the stream txnID % N, so
// with N ≥ the number of committing cores the per-stream latch is
// effectively uncontended — the sharded version of the paper's "no
// critical section protects record writing" property.
//
// Durability is epoch-based: a committer stamps its chain with the
// current open epoch and appends it to its stream's committed list, at
// which point the records are stable but not yet durable-acknowledged.
// A seal closes the epoch on every stream and then publishes it
// globally (the `sealed` counter); only after the global publish are
// the epoch's committers released. Commit durability is therefore
// "my epoch is sealed on all streams", never "my record flushed" —
// and never half an epoch: a crash between per-stream seals leaves the
// global counter unmoved, so restart rolls the whole epoch back.
//
// Sealing is leader-based rather than a dedicated goroutine: the first
// committer to find no seal in flight becomes the leader, seals, and
// broadcasts; committers that arrive while a seal is in flight ride
// the next one — group commit emerges from concurrency instead of a
// timer. Config.GroupCommitInterval > 0 adds the classic timer policy:
// the leader waits until the open epoch is that old before sealing,
// trading commit latency for larger groups. The default (0) seals
// eagerly, keeping single-stream commit latency at stable-memory speed.
//
// Two-phase locking makes the cross-stream merge order safe: locks are
// released only after CommitTxn returns, i.e. after the global seal,
// so two transactions with conflicting write sets can never commit in
// the same epoch. Within an epoch all chains are therefore disjoint,
// and the deterministic merge order (epoch, stream, per-stream seq) —
// used by both the runtime sorter and restart — is equivalent to
// commit order. See docs/LOGGING.md for the end-to-end walk-through.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mmdb/internal/fault"
	"mmdb/internal/metrics"
	"mmdb/internal/stablemem"
	"mmdb/internal/trace"
	"mmdb/internal/wal"
)

// slbRootKey names the Stable Log Buffer in the stable memory root.
const slbRootKey = "mmdb-slb"

// txnChain is a transaction's chain of SLB blocks. A block is dedicated
// to a single transaction for its lifetime, so no critical section
// protects record writing — only block allocation (§2.3.1).
type txnChain struct {
	id     uint64
	blocks []*stablemem.Block
	// stream is the log stream the chain belongs to; epoch and seq are
	// stamped at commit and define the chain's place in the global
	// merge order (epoch, stream, seq).
	stream *logStream
	epoch  uint64
	seq    uint64
}

func (c *txnChain) free() {
	for _, b := range c.blocks {
		b.Free()
	}
	c.blocks = nil
}

// logStream is one per-core stream of the sharded SLB. It lives in
// stable memory: the committed list and sequence counter survive a
// crash.
type logStream struct {
	id int
	mu sync.Mutex

	uncommitted map[uint64]*txnChain
	// committed is ordered by (epoch, seq): epochs are stamped under
	// mu from a monotone counter and seq increments per append, so the
	// list is sorted by construction and its head is the stream's
	// oldest unsorted chain.
	committed []*txnChain
	nextSeq   uint64
	// epochChains counts chains committed since the last seal touched
	// this stream (for the chains-per-epoch histogram).
	epochChains uint64
}

// slbState is the Stable Log Buffer: per-stream REDO chain lists plus
// the epoch counters. It lives in stable memory and survives crashes.
// (The §2.4 checkpoint communication buffer is the bins' ckptTrigger in
// the Stable Log Tail.)
type slbState struct {
	streams []*logStream
	// epoch is the current open epoch (first epoch is 1); sealed is
	// the highest globally durable epoch. Both survive crashes, so
	// epochs never repeat across restarts.
	epoch  atomic.Uint64
	sealed atomic.Uint64
}

// newSLBState builds a fresh buffer with n streams.
func newSLBState(n int) *slbState {
	st := &slbState{streams: make([]*logStream, n)}
	st.epoch.Store(1)
	for i := range st.streams {
		st.streams[i] = &logStream{
			id:          i,
			uncommitted: make(map[uint64]*txnChain),
		}
	}
	return st
}

// empty reports whether no stream holds any chain (safe to reshard).
func (st *slbState) empty() bool {
	for _, ls := range st.streams {
		ls.mu.Lock()
		busy := len(ls.uncommitted) > 0 || len(ls.committed) > 0
		ls.mu.Unlock()
		if busy {
			return false
		}
	}
	return true
}

// slb is the volatile handle the running system uses to operate on the
// stable slbState; it carries the config, notification channels, and
// group-commit coordination state that do not survive a crash.
type slb struct {
	st       *slbState
	mem      *stablemem.Memory
	blockSz  int
	interval time.Duration // GroupCommitInterval; 0 seals eagerly
	inj      *fault.Injector
	commitCh chan struct{} // nudges the sorter
	// stopCh is closed by Manager.Stop (the crash path included) so
	// commit waiters parked on an unsealed epoch are released.
	stopCh chan struct{}

	// Group-commit coordination. gcMu is volatile and is never held
	// while a stream mutex is held; wakeCh is a broadcast channel
	// (closed and replaced on every seal attempt's completion).
	gcMu       sync.Mutex
	sealing    bool
	wakeCh     chan struct{}
	epochStart time.Time // when the open epoch started (timer policy)

	// Instruments, all nil-safe: writeLatency observes each
	// WriteRecord (the main-CPU cost of logging one REDO record,
	// §2.3.1); groupWait the CommitTxn seal wait; streamRecords one
	// counter per stream; epochsSealed / epochChains the seal cadence.
	writeLatency  *metrics.Histogram
	groupWait     *metrics.Histogram
	streamRecords []*metrics.Counter
	epochsSealed  *metrics.Counter
	epochChains   *metrics.Histogram
	// tracer emits slb-append / stream-seal / epoch-seal events.
	tracer *trace.Tracer
}

// newSLB attaches to (or creates) the stable buffer. The stream count
// comes from cfg.LogStreams (≤ 0 means GOMAXPROCS) — but an existing
// non-empty buffer keeps its own stream count, since its chains'
// stream affinity (txnID % N) is already fixed; an empty survivor is
// resharded to the new count.
func newSLB(mem *stablemem.Memory, cfg Config) (*slb, error) {
	n := cfg.LogStreams
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	st, _ := mem.Root(slbRootKey).(*slbState)
	switch {
	case st == nil:
		st = newSLBState(n)
		mem.SetRoot(slbRootKey, st)
	case len(st.streams) != n && st.empty():
		fresh := newSLBState(n)
		fresh.epoch.Store(st.epoch.Load())
		fresh.sealed.Store(st.sealed.Load())
		st = fresh
		mem.SetRoot(slbRootKey, st)
	}
	return &slb{
		st:       st,
		mem:      mem,
		blockSz:  cfg.SLBBlockSize,
		interval: cfg.GroupCommitInterval,
		inj:      cfg.FaultInjector,
		commitCh: make(chan struct{}, 1),
		stopCh:   make(chan struct{}),

		wakeCh:     make(chan struct{}),
		epochStart: time.Now(),
	}, nil
}

// streams returns the attached buffer's stream count (the resolved
// value, which can differ from cfg.LogStreams when a non-empty buffer
// survived with a different count).
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

// BeginTxn implements txn.RedoSink.
func (s *slb) BeginTxn(id uint64) {
	ls := s.streamFor(id)
	ls.mu.Lock()
	ls.uncommitted[id] = &txnChain{id: id, stream: ls}
	ls.mu.Unlock()
}

// WriteRecord implements txn.RedoSink: append the record's encoding to
// the transaction's chain, allocating blocks on demand from stable
// memory.
func (s *slb) WriteRecord(rec *wal.Record) error {
	start := time.Now()
	defer s.writeLatency.ObserveSince(start)
	enc := rec.Encode(nil)
	ls := s.streamFor(rec.Txn)
	ls.mu.Lock()
	c := ls.uncommitted[rec.Txn]
	ls.mu.Unlock()
	if c == nil {
		return fmt.Errorf("core: no SLB chain for txn %d", rec.Txn)
	}
	// Fault point "slb.append": one hit per record, per stream. A
	// crash act with nothing applied (crash-before, ioerr) fails the
	// write cleanly; crash-after lets the record land and then halts;
	// a mutation act silently rots the record's bytes on the way into
	// stable memory — the sorter's CRC check must quarantine it.
	dec := s.inj.Check(fault.PointSLBAppend, len(enc))
	if dec.Err != nil && dec.ApplyBytes(len(enc)) == 0 {
		return fmt.Errorf("core: SLB stream %d append: %w", ls.id, dec.Err)
	}
	if dec.Mutated() {
		enc = dec.MutateBytes(enc)
	}
	if n := len(c.blocks); n == 0 || c.blocks[n-1].Remaining() < len(enc) {
		// Oversized records (e.g. large index directory nodes) get a
		// dedicated block; the paper handles long entities with a
		// separate mechanism, we simply size the block to fit.
		sz := s.blockSz
		if len(enc) > sz {
			sz = len(enc)
		}
		b, err := s.mem.NewBlock(sz)
		if err != nil {
			return fmt.Errorf("core: stable log buffer: %w", err)
		}
		c.blocks = append(c.blocks, b)
	}
	if err := c.blocks[len(c.blocks)-1].Append(enc); err != nil {
		return fmt.Errorf("core: SLB block append: %w", err)
	}
	if len(s.streamRecords) > 0 {
		s.streamRecords[ls.id].Inc()
	}
	s.tracer.Emit(trace.Event{
		Kind: trace.KindSLBAppend, Txn: rec.Txn,
		Seg: uint64(rec.PID.Segment), Part: uint64(rec.PID.Part),
		Arg: uint64(len(enc)), Arg2: uint64(ls.id),
	})
	if dec.Err != nil {
		return fmt.Errorf("core: SLB stream %d append: %w", ls.id, dec.Err)
	}
	return nil
}

// CommitTxn implements txn.RedoSink: the chain moves atomically from
// the uncommitted map to its stream's committed list, stamped with the
// current epoch, and the call blocks until that epoch is sealed on
// every stream. The transaction is durable when this returns (§2.3.1's
// instant commit, at epoch granularity).
func (s *slb) CommitTxn(id uint64) error {
	ls := s.streamFor(id)
	ls.mu.Lock()
	c := ls.uncommitted[id]
	if c == nil {
		ls.mu.Unlock()
		return fmt.Errorf("core: commit of unknown txn %d", id)
	}
	delete(ls.uncommitted, id)
	if len(c.blocks) == 0 {
		// Read-only transaction: nothing to log, nothing to seal.
		ls.mu.Unlock()
		return nil
	}
	// The epoch is read under the stream mutex and the sealer bumps it
	// before taking any stream mutex, so a chain stamped epoch E here
	// is always on the list by the time E's seal locks this stream.
	c.epoch = s.st.epoch.Load()
	c.seq = ls.nextSeq
	ls.nextSeq++
	ls.epochChains++
	ls.committed = append(ls.committed, c)
	ls.mu.Unlock()
	return s.awaitSeal(c.epoch)
}

// awaitSeal blocks until epoch e is globally sealed, electing the
// calling goroutine seal leader when no seal is in flight (so group
// commit needs no dedicated closer goroutine and works before Start).
func (s *slb) awaitSeal(e uint64) error {
	start := time.Now()
	defer s.groupWait.ObserveSince(start)
	for {
		if s.st.sealed.Load() >= e {
			nudge(s.commitCh)
			return nil
		}
		s.gcMu.Lock()
		if s.st.sealed.Load() >= e {
			s.gcMu.Unlock()
			nudge(s.commitCh)
			return nil
		}
		wake := s.wakeCh
		var timer <-chan time.Time
		if !s.sealing {
			var wait time.Duration
			if s.interval > 0 {
				if age := time.Since(s.epochStart); age < s.interval {
					wait = s.interval - age
				}
			}
			if wait == 0 {
				// Become the leader: seal outside gcMu (stream
				// mutexes are leaf locks of the seal), then broadcast.
				s.sealing = true
				s.gcMu.Unlock()
				err := s.seal()
				s.gcMu.Lock()
				s.sealing = false
				s.epochStart = time.Now()
				wake = s.wakeCh
				s.wakeCh = make(chan struct{})
				s.gcMu.Unlock()
				close(wake)
				if err != nil {
					if fault.IsCrash(err) {
						return err
					}
					continue // transient injected error: retry the seal
				}
				continue
			}
			timer = time.After(wait)
		}
		s.gcMu.Unlock()
		select {
		case <-wake:
		case <-timer:
		case <-s.stopCh:
			// The machine is stopping (crash or shutdown) with the
			// epoch unsealed: the chain stays on the committed list
			// and restart rolls the whole epoch back.
			if s.inj.Crashed() {
				return fmt.Errorf("core: commit of txn awaiting epoch %d: %w", e, fault.ErrCrashed)
			}
			return fmt.Errorf("core: recovery component stopped before epoch %d sealed", e)
		}
	}
}

// seal closes the open epoch: bump the epoch counter (new commits land
// in the next epoch), pass every stream's latch, then publish the epoch
// as globally durable in the one stable word restart reads. The
// per-stream "slb.seal" fault point sits before each stream's latch — a
// crash there leaves the epoch passed on a strict prefix of the streams
// and NOT published, which restart treats as wholly unsealed.
func (s *slb) seal() error {
	e := s.st.epoch.Add(1) - 1
	var chains uint64
	for _, ls := range s.st.streams {
		if dec := s.inj.Check(fault.PointSLBSeal, 0); dec.Err != nil {
			return fmt.Errorf("core: sealing epoch %d on stream %d: %w", e, ls.id, dec.Err)
		}
		// Taking the stream latch is the barrier: every chain stamped e
		// on this stream is on its committed list once it is held.
		ls.mu.Lock()
		chains += ls.epochChains
		ls.epochChains = 0
		ls.mu.Unlock()
		s.tracer.Emit(trace.Event{Kind: trace.KindStreamSeal, Arg: e, Arg2: uint64(ls.id)})
	}
	s.st.sealed.Store(e)
	s.mem.ChargeWrite(8)
	s.epochsSealed.Inc()
	s.epochChains.Observe(int64(chains))
	s.tracer.Emit(trace.Event{Kind: trace.KindEpochSeal, Arg: e, Arg2: chains})
	nudge(s.commitCh)
	return nil
}

// AbortTxn implements txn.RedoSink: the chain's UNDO counterpart has
// already rolled memory back; the REDO chain is simply discarded.
func (s *slb) AbortTxn(id uint64) {
	ls := s.streamFor(id)
	ls.mu.Lock()
	c := ls.uncommitted[id]
	delete(ls.uncommitted, id)
	ls.mu.Unlock()
	if c != nil {
		c.free()
	}
}

// peekSealed returns the globally oldest committed, sealed, unsorted
// chain — minimum (epoch, stream, seq) with epoch ≤ upTo, a seal
// watermark the caller read — without removing it, or nil.
// Committed-but-unsealed chains are invisible to the sorter: their
// effects must not reach the partition bins (and so the recoverable
// state) until their epoch is durable. The chain stays on its stream's list until markSorted, so a
// crash mid-sort cannot lose committed records: the restart drain
// re-sorts the whole chain and lenient replay absorbs the duplicated
// prefix.
func (s *slb) peekSealed(upTo uint64) *txnChain {
	var best *txnChain
	for _, ls := range s.st.streams {
		ls.mu.Lock()
		if len(ls.committed) > 0 {
			c := ls.committed[0]
			if c.epoch <= upTo &&
				(best == nil || c.epoch < best.epoch ||
					(c.epoch == best.epoch && c.stream.id < best.stream.id)) {
				best = c
			}
		}
		ls.mu.Unlock()
	}
	return best
}

// markSorted removes a fully sorted chain from its stream's committed
// list and frees its stable blocks back to stable memory.
func (s *slb) markSorted(c *txnChain) {
	ls := c.stream
	ls.mu.Lock()
	for i, x := range ls.committed {
		if x == c {
			ls.committed = append(ls.committed[:i], ls.committed[i+1:]...)
			break
		}
	}
	ls.mu.Unlock()
	c.free()
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
		c.free()
	}
}

// discardUnsealed drops every committed chain whose epoch was never
// globally sealed — the group-commit rollback of restart. A crash
// between per-stream seals leaves such an epoch sealed on a prefix of
// the streams but unpublished; since no committer of that epoch was
// ever acknowledged (CommitTxn returns only after the publish), the
// whole epoch rolls back, never half of it. Returns the discarded
// chains (newest first per stream) for accounting.
func (s *slb) discardUnsealed() []*txnChain {
	sealed := s.st.sealed.Load()
	var dropped []*txnChain
	for _, ls := range s.st.streams {
		ls.mu.Lock()
		keep := ls.committed[:0]
		for _, c := range ls.committed {
			if c.epoch > sealed {
				dropped = append(dropped, c)
			} else {
				keep = append(keep, c)
			}
		}
		for i := len(keep); i < len(ls.committed); i++ {
			ls.committed[i] = nil
		}
		ls.committed = keep
		ls.epochChains = 0
		ls.mu.Unlock()
	}
	for _, c := range dropped {
		c.free()
	}
	return dropped
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
