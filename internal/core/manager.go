package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mmdb/internal/addr"
	"mmdb/internal/fault"
	"mmdb/internal/heat"
	"mmdb/internal/lock"
	"mmdb/internal/mm"
	"mmdb/internal/simdisk"
	"mmdb/internal/trace"
	"mmdb/internal/txn"
	"mmdb/internal/wal"
)

// rootPID is the sentinel partition address of root pages on the log
// disk (the catalog root is "periodically written to the log disk",
// §2.5).
var rootPID = addr.PartitionID{Segment: 0xFFFFFF, Part: 0xFFFFFF}

// Callbacks let the database facade supply catalog knowledge without a
// dependency cycle: the recovery component needs to map partitions to
// their relations (for checkpoint read locks), install checkpoint
// locations in catalog entries, and locate checkpoint images during
// recovery.
type Callbacks struct {
	// OwnerRel maps a partition to the relation ID whose read lock
	// makes the partition transaction-consistent (§2.4 step 3). For
	// an index partition this is the indexed relation. ok=false means
	// the partition no longer exists (freed).
	OwnerRel func(pid addr.PartitionID) (relID uint64, ok bool)
	// InstallCkpt performs the logged catalog update recording the
	// partition's new checkpoint disk location, inside the checkpoint
	// transaction, and returns the previous location (§2.4 steps
	// 5–6). It must NOT write the image itself.
	InstallCkpt func(t *txn.Txn, pid addr.PartitionID, track simdisk.TrackLoc) (old simdisk.TrackLoc, err error)
	// Locate returns the partition's current checkpoint disk
	// location, NilTrack if it has never been checkpointed.
	Locate func(pid addr.PartitionID) (simdisk.TrackLoc, error)
	// AllPartitions enumerates every partition in the database (from
	// the catalogs) for the background recovery sweep.
	AllPartitions func() ([]addr.PartitionID, error)
}

// Hooks are test seams: a non-nil hook runs at the named point inside
// the checkpoint transaction; returning an error aborts that checkpoint
// attempt (simulating a crash or fault at that point).
type Hooks struct {
	AfterFence      func(pid addr.PartitionID) error
	AfterImageWrite func(pid addr.PartitionID) error
	BeforeCommit    func(pid addr.PartitionID) error
}

// Manager is the recovery component: it owns the stable log structures
// and the two "CPUs'" recovery duties. The main CPU's transaction
// processing runs through Txns; the recovery CPU is a dedicated
// goroutine.
type Manager struct {
	cfg   Config
	hw    *Hardware
	store *mm.Store
	locks *lock.Manager
	Txns  *txn.Manager

	slb  *slb
	slt  *slt
	dmap *diskMap

	cb    Callbacks
	Hooks Hooks

	// inj is the optional fault injector from Config; nil when fault
	// injection is off.
	inj *fault.Injector

	stop chan struct{}
	wg   sync.WaitGroup

	// sortMu makes the sorter single-flight: drain runs only under it,
	// taken by the recovery CPU's loop, restart's drainStableOnly,
	// PartitionFreed and the checkpoint's drain barrier, which holds it
	// through the fence. Lock order: sortMu before the SLT and stream
	// mutexes; signalIdle is never called while holding it.
	sortMu sync.Mutex

	// metrics is this generation's registry: every number the component
	// reports, measured or simulated, is an instrument in it.
	metrics *Metrics

	// tracer is the structured event tracer (nil when tracing is off);
	// crashTrace is the prior generation's flight-recorder timeline,
	// recovered from stable memory when this manager attached.
	tracer     *trace.Tracer
	crashTrace []trace.Event

	// heat is the crash-surviving partition-heat tracker (nil when
	// HeatSnapshotBytes is 0); prog is the live restart-progress state,
	// seeded from the heat ranking recovered at attach.
	heat *heat.Tracker
	prog progressState

	// WaitIdle's signal. idleMu guards no state of its own: every change
	// that can make settled() true is followed by signalIdle, which takes
	// idleMu, so a waiter between its check and its Wait cannot miss it.
	// Lock order: idleMu before the SLT and stream mutexes, so nothing
	// holding those may signal.
	idleMu   sync.Mutex
	idleCond *sync.Cond
	// sweeping is set from Resume until the background sweep returns;
	// crashed is set by a crash act's event sink.
	sweeping atomic.Bool
	crashed  atomic.Bool
}

// New creates the recovery component over hardware hw. For a fresh
// database the stable memory is empty; after a crash, Attach recovers
// the stable structures (use Restart for the full §2.5 sequence).
func New(hw *Hardware, cfg Config, store *mm.Store, locks *lock.Manager) (*Manager, error) {
	if cfg.RecoveryWorkers < 0 {
		return nil, fmt.Errorf("core: RecoveryWorkers is %d; it must be 0 (no sweep) or more", cfg.RecoveryWorkers)
	}
	s, err := newSLB(hw.Stable, cfg)
	if err != nil {
		return nil, err
	}
	// The metrics registry is built after the SLB attaches, because the
	// per-stream counters must match the stream count of the buffer that
	// actually survived (which can differ from cfg.LogStreams).
	mt := newMetrics(s.streams())
	// The devices outlive managers: from here on they charge their
	// simulated cost to this generation's registry.
	hw.Stable.SetRefs(mt.SimStableRefs)
	hw.Log.SetBusy(mt.SimLogDiskBusy)
	hw.Ckpt.SetBusy(mt.SimCkptDiskBusy)
	m := &Manager{
		cfg:     cfg,
		hw:      hw,
		store:   store,
		locks:   locks,
		slb:     s,
		slt:     newSLT(hw.Stable),
		dmap:    newDiskMap(cfg.CheckpointTracks),
		stop:    make(chan struct{}),
		metrics: mt,
	}
	m.idleCond = sync.NewCond(&m.idleMu)
	// Thread the instruments through the components the manager wires:
	// the SLB reports record-write latency and counts records per
	// stream, commits and aborts, the lock table wait time and
	// deadlocks, the transaction manager begin-to-commit latency.
	s.writeLatency = mt.SLBRecordWrite
	s.streamRecords = mt.StreamRecords
	s.commits = mt.TxnsCommitted
	s.aborts = mt.TxnsAborted
	mt.Streams.Set(int64(s.streams()))
	locks.WaitLatency = mt.LockWait
	locks.DeadlockCount = mt.Deadlocks
	m.Txns = txn.NewManager(store, locks, s)
	m.Txns.CommitLatency = mt.CommitLatency
	// Thread the fault injector through the crash-surviving devices
	// (re-wired on every recovery generation, since the hardware
	// outlives managers) and surface its activity in this generation's
	// registry. A nil injector detaches everything.
	m.inj = cfg.FaultInjector
	// Attach the tracer before anything can emit: it recovers the prior
	// generation's flight recorder from stable memory and re-arms (or
	// frees) the ring per this generation's config.
	if err := m.wireTrace(); err != nil {
		return nil, err
	}
	s.tracer = m.tracer
	locks.Tracer = m.tracer
	m.Txns.Tracer = m.tracer
	// Attach the heat tracker after the tracer, so the prior generation's
	// ranking (recovered from the stable snapshot region) can seed the
	// restart-progress state and heat events are traced from the start.
	ht, recovered, rejected, err := heat.Attach(hw.Stable, cfg.HeatSnapshotBytes, cfg.HeatPersistEvery, 0)
	if err != nil {
		return nil, err
	}
	m.heat = ht
	m.prog.init(recovered)
	mt.HeatRecoveredParts.Set(int64(len(recovered)))
	// A rotted snapshot slot is rejected, not fatal: the sweep falls
	// back to catalog order and the rejection is surfaced here.
	mt.HeatSnapshotRejects.Add(int64(rejected))
	if ht != nil {
		ht.Touches = mt.HeatTouches
		ht.Persists = mt.HeatPersists
		ht.TrackedParts = mt.HeatTrackedParts
		mt.HeatTrackedParts.Set(int64(ht.Tracked()))
		ht.SnapshotBytes = mt.HeatSnapshotBytes
		ht.OnPersist = func(parts, bytes int) {
			m.tracer.Emit(trace.Event{
				Kind: trace.KindHeatSnapshot, Arg: uint64(parts), Arg2: uint64(bytes),
			})
		}
		store.SetHeat(ht)
	} else {
		// Detach any prior generation's tracker: its stable region is
		// gone, and a reused store must not keep touching it.
		store.SetHeat(nil)
	}
	hw.Stable.SetInjector(m.inj)
	hw.Log.Primary.SetInjector(m.inj, fault.PointLogWritePrimary, fault.PointLogReadPrimary)
	hw.Log.Mirror.SetInjector(m.inj, fault.PointLogWriteMirror, fault.PointLogReadMirror)
	hw.Ckpt.SetInjector(m.inj)
	hw.Arch.SetInjector(m.inj)
	hw.Log.Fallbacks = mt.DuplexFallbacks
	hw.Log.Repairs = mt.DuplexRepairs
	m.inj.SetCounters(fault.Counters{
		Armed:          mt.FaultsArmed,
		Triggered:      mt.FaultsTriggered,
		TornWrites:     mt.FaultTornWrites,
		MutationsArmed: mt.MutationsArmed,
		MutationsFired: mt.MutationsFired,
	})
	return m, nil
}

// faultPoint evaluates a control fault point (no payload bytes),
// returning the injected error if a rule fires there.
func (m *Manager) faultPoint(p fault.Point) error {
	return m.inj.Check(p, 0).Err
}

// SetCallbacks installs the facade's catalog callbacks; must be called
// before Start.
func (m *Manager) SetCallbacks(cb Callbacks) { m.cb = cb }

// Store returns the volatile memory manager.
func (m *Manager) Store() *mm.Store { return m.store }

// Hardware returns the crash-surviving hardware bundle.
func (m *Manager) Hardware() *Hardware { return m.hw }

// Start launches the recovery CPU and the main-CPU checkpointer.
func (m *Manager) Start() {
	m.wg.Add(2)
	go m.recoveryCPU()
	go m.checkpointer()
}

// Stop halts both loops and waits for them; stable state is left
// exactly as is (this is also the crash path — the simulated crash
// keeps stable memory and disks and discards everything else).
func (m *Manager) Stop() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	m.signalIdle()
	m.wg.Wait()
}

// WaitIdle blocks until the recovery component is idle: no committed
// chain waits on any stream, no bin is checkpoint-pending (which covers
// a checkpoint in progress), and no background sweep is running. It
// also returns once the machine stops or crashes, since nothing moves
// after that. It waits on a signal, never on a timer.
func (m *Manager) WaitIdle() {
	m.idleMu.Lock()
	defer m.idleMu.Unlock()
	for !m.settled() {
		m.idleCond.Wait()
	}
}

// settled is WaitIdle's predicate; idleMu held.
func (m *Manager) settled() bool {
	return m.crashed.Load() || m.halted() || !m.sweeping.Load() && !m.slb.busy() && !m.slt.pending()
}

// halted reports whether the machine has stopped or crashed.
func (m *Manager) halted() bool {
	select {
	case <-m.stop:
		return true
	default:
		return m.inj.Crashed()
	}
}

// signalIdle wakes WaitIdle callers to re-check settled(). The caller
// must hold neither the SLT nor a stream mutex.
func (m *Manager) signalIdle() {
	m.idleMu.Lock()
	m.idleCond.Broadcast()
	m.idleMu.Unlock()
}

// PartitionFreed discards a dropped partition's bin and any checkpoint
// request it had pending, after sorting what is committed: a record of the
// partition's last writers sorted after the drop would make the bin
// again. Once the machine has halted it changes nothing.
func (m *Manager) PartitionFreed(pid addr.PartitionID) {
	m.sortMu.Lock()
	if m.halted() {
		m.sortMu.Unlock()
		return
	}
	m.drain()
	m.sortMu.Unlock()
	m.dropBin(pid)
}

// ---------------------------------------------------------------------
// The recovery CPU (§2.3.3, §2.3.4): sort committed records into bins,
// flush full bin pages to the log disk, trigger checkpoints, advance
// the log window, roll old pages to the archive tape.
// ---------------------------------------------------------------------

func (m *Manager) recoveryCPU() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case <-m.slb.commitCh:
			m.sortMu.Lock()
			m.drain()
			m.sortMu.Unlock()
			m.signalIdle()
		}
	}
}

// drain sorts the committed chains in the SLB in commit order; sortMu
// must be held. It sorts only the commit numbers taken when it began,
// so a commit flood cannot hold sortMu (and with it a checkpoint
// barrier or Stop) for ever: each later commit nudges the recovery CPU
// to drain again.
func (m *Manager) drain() {
	upTo := m.slb.st.seq.Load()
	for {
		c := m.slb.peekOldest(upTo)
		if c == nil {
			return
		}
		if err := m.sortChain(c); err != nil {
			if fault.IsFault(err) {
				// An injected device fault interrupted sorting. The
				// chain is still on the committed list, so nothing is
				// lost: a crash leaves it for the restart drain, and a
				// transient error retries on the next nudge (the
				// partially sorted prefix duplicates are absorbed by
				// lenient replay, like the restart re-sort path).
				if !fault.IsCrash(err) {
					nudge(m.slb.commitCh)
				}
				return
			}
			// Stable memory exhaustion is the only other expected
			// cause; pushing the chain back and stalling would deadlock
			// the simulation, so surface loudly.
			panic(fmt.Sprintf("core: sortChain: %v", err))
		}
		m.slb.markSorted(c)
	}
}

// sortChain relocates one committed transaction's records from the SLB
// into partition bins in the SLT, in record order (§2.3). A record's SLB
// bytes are the bytes its bin page stores, so each is copied as it was
// written.
func (m *Manager) sortChain(c *txnChain) error {
	for _, blk := range c.blocks {
		buf := blk.Bytes()
		w := wal.Walk(buf)
		for w.Next() {
			if err := m.sortRecord(w.Record().PID, w.Bytes()); err != nil {
				return err
			}
		}
		if err := w.Err(); err != nil {
			// Rotted bytes inside a committed chain — a mutation act or
			// genuine stable-memory decay. The record CRC turned what
			// would be silent misapplication into a typed decode error:
			// the clean prefix is sorted and the loss counted and traced,
			// so crash sweeps can tell detected damage from silence.
			m.quarantineSuffix(trace.Event{Txn: c.id}, w.Clean(), len(buf), err, false)
		}
	}
	return nil
}

// sortRecord copies one record's encoding into its partition's bin,
// flushing the bin's page if full and triggering an update-count
// checkpoint at the threshold.
func (m *Manager) sortRecord(pid addr.PartitionID, enc []byte) error {
	s := m.slt
	s.st.mu.Lock()
	b, err := s.binForLocked(pid)
	if err != nil {
		s.st.mu.Unlock()
		return err
	}
	// The restart re-sort must never append after a torn record.
	m.checkTailLocked(b)
	if b.cur == nil {
		sz := m.cfg.LogPageSize
		if len(enc) > sz {
			sz = len(enc)
		}
		blk, err := m.hw.Stable.NewBlock(sz)
		if err != nil {
			s.st.mu.Unlock()
			return err
		}
		b.cur = blk
	}
	if b.cur.Remaining() < len(enc) {
		if err := m.flushBinPageLocked(b); err != nil {
			s.st.mu.Unlock()
			return err
		}
	}
	if b.cur.Remaining() < len(enc) {
		// Oversized record: replace the page buffer with one sized to
		// fit (it flushes as an oversized log page).
		b.cur.Recycle()
		blk, err := m.hw.Stable.NewBlock(len(enc))
		if err != nil {
			s.st.mu.Unlock()
			return err
		}
		b.cur = blk
	}
	if err := b.cur.Append(enc); err != nil {
		s.st.mu.Unlock()
		return fmt.Errorf("core: log page append of %d-byte record: %w", len(enc), err)
	}
	b.curCount++
	b.updateCount++
	trigger := b.updateCount >= m.cfg.UpdateThreshold && s.raiseLocked(b, trigUpdateCount)
	s.st.mu.Unlock()
	cost := &m.cfg.Cost
	m.metrics.RecordsSorted.Add(1)
	m.metrics.BytesSorted.Add(int64(len(enc)))
	// I_record_sort: lookup + page check + copy startup +
	// per-byte copy + page info update.
	m.metrics.SimRecoveryInstr.Add(int64(cost.IRecordLookup + cost.IPageCheck +
		cost.ICopyFixed + cost.ICopyAdd*float64(len(enc)) + cost.IPageUpdate))
	if trigger {
		m.metrics.CkptByUpdateCount.Add(1)
		m.metrics.SimRecoveryInstr.Add(int64(cost.ICheckpoint))
	}
	return nil
}

// flushBinPageLocked writes the bin's current page to the log disk,
// folded (fold.go), adds it to the bin's page list and resets the
// buffer; the SLT mutex must be held.
func (m *Manager) flushBinPageLocked(b *bin) error {
	m.checkTailLocked(b)
	if b.cur == nil || b.cur.Len() == 0 {
		return nil
	}
	body, folded, foldedBytes := m.slt.fold.fold(b.cur.Bytes())
	pg := &wal.Page{PID: b.pid, Records: body}
	flushStart := time.Now()
	// The log disks, and later the archive, keep this fresh encoding;
	// nothing writes it again.
	lsn, err := m.hw.Log.Append(pg.Encode())
	if err != nil {
		return err
	}
	m.metrics.PageFlushLatency.ObserveSince(flushStart)
	m.metrics.RecordsFolded.Add(int64(folded))
	m.metrics.BytesFolded.Add(int64(foldedBytes))
	m.tracer.Emit(pidEvent(trace.Event{
		Kind: trace.KindPageFlush, LSN: uint64(lsn), Arg: uint64(b.curCount),
	}, b.pid))
	b.pages = append(b.pages, lsn)
	b.cur.Reset()
	b.curCount = 0
	m.metrics.PagesFlushed.Add(1)
	c := m.cfg.Cost
	m.metrics.SimRecoveryInstr.Add(int64(c.IWriteInit + c.IPageAlloc + c.IProcessLSN))
	m.advanceWindowLocked()
	return nil
}

// advanceWindowLocked is the window pass after a page write: one scan
// over the bins finds the archive floor and the partitions whose oldest
// log page is inside the grace region at the window's tail, raises an
// age checkpoint for each, oldest first (§2.3.3), and rolls safely
// obsolete pages to the archive tape. SLT mutex held.
func (m *Manager) advanceWindowLocked() {
	head := m.hw.Log.NextLSN() - 1
	tail := head - simdisk.LSN(m.cfg.LogWindowPages) + 1
	if tail < 1 {
		return
	}
	floor, aged := m.slt.windowLocked(tail + simdisk.LSN(m.cfg.GracePages))
	for _, b := range aged {
		m.slt.raiseLocked(b, trigAge)
		m.metrics.CkptByAge.Add(1)
		m.metrics.SimRecoveryInstr.Add(int64(m.cfg.Cost.ICheckpoint))
	}
	m.archiveLocked(tail, floor)
}

// archiveLocked rolls log pages up to tail onto the tape and drops them
// from the log disks, but never pages still needed for memory recovery:
// nothing at or above floor, the minimum first LSN over all bins, goes
// (safety over window discipline; overruns are counted).
func (m *Manager) archiveLocked(tail, floor simdisk.LSN) {
	limit := tail
	if floor != simdisk.NilLSN && floor-1 < limit {
		m.metrics.WindowOverruns.Add(1)
		limit = floor - 1
	}
	for lsn := m.slt.st.lastArchived + 1; lsn <= limit; lsn++ {
		pg, page, err := readLogPage(m.hw.Log, lsn, nil)
		if err != nil {
			if fault.IsFault(err) {
				// Injected fault (or the crash itself): stop here so
				// the unarchived suffix is retried next round rather
				// than dropped with a hole.
				limit = lsn - 1
				break
			}
			// Already dropped, never written (a permanent hole left by
			// a crashed append), or rotted beyond both duplexed copies
			// (nothing left worth archiving); skip.
			continue
		}
		// The archive keeps the page under its partition and LSN: the
		// identity is what a partition-granular rebuild reads by, and
		// the LSN is what rebuilds dedupe by (a crashed rollover
		// retries, so appends are at-least-once). page is the log disks'
		// own buffer; the archive keeps it without a copy.
		if err := m.hw.Arch.AppendPage(pg.PID, lsn, page); err != nil {
			limit = lsn - 1
			break
		}
		m.metrics.PagesArchived.Add(1)
	}
	if limit > m.slt.st.lastArchived {
		// Every append up to limit returned with its bytes on the
		// archive device, so the rolled pages may leave the log disks.
		m.hw.Log.Drop(limit)
		m.slt.st.lastArchived = limit
	}
}

// fence snapshots the pre-checkpoint prefix of the partition's bin: the
// current partial page is flushed to the log disk so the fence lies on
// a page boundary, then the page count and update count are recorded.
// The checkpoint's drain barrier runs it right after drain, under
// sortMu.
func (m *Manager) fence(pid addr.PartitionID) error {
	s := m.slt
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	b, ok := s.st.bins[pid]
	if !ok || b.ckptTrigger == 0 {
		return fmt.Errorf("core: checkpoint of %v withdrawn (partition freed)", pid)
	}
	if b.cur != nil && b.cur.Len() > 0 {
		if err := m.flushBinPageLocked(b); err != nil {
			return err
		}
	}
	b.fenceActive = true
	b.fencePages = len(b.pages)
	b.fenceUpdates = b.updateCount
	return nil
}

// dropBin discards a freed partition's bin. A checkpoint request it had
// pending ends unserved, and is counted as abandoned.
func (m *Manager) dropBin(pid addr.PartitionID) {
	m.slt.dropBin(pid, m.metrics.CkptAbandoned)
	m.signalIdle()
}

// finishCheckpoint drops the fenced prefix from the memory-recovery
// set: the new checkpoint image supersedes those log records, though
// they remain on the log disk for the archive (§2.4 step 7). The SLT
// mutex orders it against the sorter; it needs no sortMu.
func (m *Manager) finishCheckpoint(pid addr.PartitionID) error {
	s := m.slt
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	b, ok := s.st.bins[pid]
	if !ok {
		return fmt.Errorf("core: finishCheckpoint: no bin for %v", pid)
	}
	if !b.fenceActive {
		return fmt.Errorf("core: finishCheckpoint: no fence on %v", pid)
	}
	b.pages = append([]simdisk.LSN(nil), b.pages[b.fencePages:]...)
	b.updateCount -= b.fenceUpdates
	b.fenceActive = false
	b.fencePages = 0
	b.fenceUpdates = 0
	s.lowerLocked(b)
	if len(b.pages) == 0 && b.cur != nil && b.cur.Len() == 0 {
		// Partition goes inactive: return the large page buffer to the
		// pool, keeping only the permanent information block.
		b.cur.Recycle()
		b.cur = nil
		b.curCount = 0
	}
	m.metrics.CkptCompleted.Add(1)
	// Dropping the fenced prefix may have raised the archive floor:
	// roll newly safe pages to tape now rather than waiting for the
	// next page flush.
	if head := m.hw.Log.NextLSN() - 1; head >= simdisk.LSN(m.cfg.LogWindowPages) {
		floor, _ := s.windowLocked(simdisk.NilLSN)
		m.archiveLocked(head-simdisk.LSN(m.cfg.LogWindowPages)+1, floor)
	}
	// The surviving suffix may already exceed the threshold (records
	// kept arriving between fence and finish); re-trigger immediately
	// rather than waiting for the next record.
	if b.updateCount >= m.cfg.UpdateThreshold && s.raiseLocked(b, trigUpdateCount) {
		m.metrics.CkptByUpdateCount.Add(1)
		m.metrics.SimRecoveryInstr.Add(int64(m.cfg.Cost.ICheckpoint))
	}
	return nil
}
