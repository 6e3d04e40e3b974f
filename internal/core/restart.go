package core

// Post-crash restart (§2.5), in two phases. The synchronous phase —
// Restart — runs before the first transaction: it rolls back
// uncommitted and unsealed-epoch SLB chains, merge-sorts the surviving
// committed chains from every log stream into the Stable Log Tail's
// partition bins in (epoch, stream, sequence) order, and restores the
// catalog partitions from the well-known stable root. Everything else
// is deferred: Resume installs on-demand recovery (a transaction
// touching an unrecovered partition triggers its restore) and the
// parallel background sweep that restores the remainder, so time to
// first transaction is independent of database size.

import (
	"errors"
	"fmt"
	"log"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mmdb/internal/addr"
	"mmdb/internal/archive"
	"mmdb/internal/catalog"
	"mmdb/internal/fault"
	"mmdb/internal/mm"
	"mmdb/internal/simdisk"
	"mmdb/internal/trace"
	"mmdb/internal/wal"
)

// Restart performs the stable-state half of post-crash recovery (§2.5):
//
//  1. discard uncommitted SLB chains (their transactions died with the
//     volatile memory), roll back committed chains whose group-commit
//     epoch was never globally sealed (their committers were never
//     acknowledged — a crash between per-stream seals must not surface
//     half an epoch), and reset crashed in-progress checkpoint
//     requests;
//  2. synchronously re-sort the remaining committed chains — merged
//     across streams in (epoch, stream, sequence) order — into
//     partition bins, completing the Stable Log Tail;
//  3. restore the catalog partitions from the well-known root.
//
// After Restart the facade decodes the catalogs, installs the Locate
// callback, and calls Resume to enable on-demand recovery and the
// background sweep; regular transaction processing can begin as soon as
// the catalogs are restored.
func (m *Manager) Restart() (*catalog.Root, error) {
	// Stamp the restart clock first: time-to-p99-restored and the
	// /recovery progress view measure from here.
	m.prog.restartStart.CompareAndSwap(0, time.Now().UnixNano())
	// The root-scan phase is everything that must happen before the
	// first transaction: stable-log drain plus catalog restore (§2.5).
	scanStart := time.Now()
	defer m.metrics.RestartRootScan.ObserveSince(scanStart)
	m.tracer.Emit(trace.Event{Kind: trace.KindRootScanBegin})
	defer m.tracer.Emit(trace.Event{Kind: trace.KindRootScanEnd})
	m.DrainStableOnly()
	root := m.slt.rootCopy()
	// Restore the catalogs first (§2.5): their partition addresses
	// and checkpoint locations come from the well-known root.
	m.store.EnsureSegment(addr.SegRelationCatalog)
	m.store.EnsureSegment(addr.SegIndexCatalog)
	// Each recovery loop also rebuilds the checkpoint-disk allocation
	// map's root-known part as it goes (the facade marks
	// catalog-derived tracks after decoding): marking a track the
	// moment its partition is restored means a future early return
	// cannot leave the map missing live catalog tracks.
	for _, ps := range root.RelCatParts {
		pid := addr.PartitionID{Segment: addr.SegRelationCatalog, Part: ps.Part}
		p, err := m.RecoverPartition(pid, ps.Track)
		if err != nil {
			return nil, fmt.Errorf("core: restoring relation catalog %v: %w", pid, err)
		}
		m.store.Install(p)
		m.dmap.markUsed(ps.Track)
	}
	for _, ps := range root.IdxCatParts {
		pid := addr.PartitionID{Segment: addr.SegIndexCatalog, Part: ps.Part}
		p, err := m.RecoverPartition(pid, ps.Track)
		if err != nil {
			return nil, fmt.Errorf("core: restoring index catalog %v: %w", pid, err)
		}
		m.store.Install(p)
		m.dmap.markUsed(ps.Track)
	}
	return root, nil
}

// DrainStableOnly performs the stable-log half of restart without
// touching the checkpoint disks: uncommitted SLB chains are discarded,
// crashed in-progress checkpoint requests reset, mid-flight fences
// cleared, and committed-but-unsorted chains sorted into the bins. Used
// by Restart and by media-failure recovery (which cannot read the
// checkpoint disks).
func (m *Manager) DrainStableOnly() {
	m.slb.discardUncommitted()
	// Group-commit rollback: a committed chain whose epoch was never
	// globally sealed belongs to a transaction that was never
	// acknowledged durable (CommitTxn returns only after the global
	// seal), so the whole epoch is discarded — including the case where
	// the crash landed between two streams' seals of the same epoch.
	for _, c := range m.slb.discardUnsealed() {
		m.metrics.EpochRollbacks.Add(1)
		m.tracer.Emit(trace.Event{
			Kind: trace.KindEpochRollback, Txn: c.id,
			Arg: c.epoch, Arg2: uint64(c.stream.id),
		})
	}
	m.slb.resetInProgress()
	m.slt.st.mu.Lock()
	var pending []addr.PartitionID
	for _, b := range m.slt.st.bins {
		if b.ckptPending {
			pending = append(pending, b.pid)
		}
		b.fenceActive = false
		b.fencePages = 0
		b.fenceUpdates = 0
		// A crash torn mid-append can leave an undecodable record tail
		// in the bin's current page buffer; cut it back to the last
		// whole record so the restart re-sort appends cleanly. The torn
		// record's transaction chain is still on the committed list
		// (chains leave the SLB only after a full sort), so the record
		// is re-sorted, not lost. A CRC mismatch at the cut, though, is
		// rot rather than a torn append — the damaged suffix may belong
		// to already-sorted chains, so it counts as quarantined.
		if b.cur != nil && b.cur.Len() > 0 {
			buf := b.cur.Bytes()
			if n := wal.ValidPrefix(buf); n < len(buf) {
				if _, _, derr := wal.Decode(buf[n:]); errors.Is(derr, wal.ErrChecksum) {
					m.metrics.CorruptDetected.Inc()
					m.metrics.QuarantinedRecords.Inc()
					m.tracer.Emit(pidEvent(trace.Event{
						Kind: trace.KindRecordQuarantine,
						Arg:  uint64(n), Arg2: uint64(len(buf) - n),
						Str: derr.Error(),
					}, b.pid))
				} else {
					// A short (non-checksum) tail is either the crash's own
					// torn final append — harmless, the chain re-sorts it —
					// or rot that truncated an acknowledged record, which is
					// a real loss. The two are byte-identical from here, so
					// the cut itself is surfaced as evidence.
					m.metrics.TornTailCuts.Inc()
					m.tracer.Emit(pidEvent(trace.Event{
						Kind: trace.KindRecordQuarantine,
						Arg:  uint64(n), Arg2: uint64(len(buf) - n),
						Str: "torn tail cut",
					}, b.pid))
				}
				b.cur.Truncate(n)
			}
		}
	}
	m.slt.st.mu.Unlock()
	// ckptPending and the request queue are both stable, but they are
	// written under different locks, so a crash can separate them. A bin
	// that is pending with no request would never be checkpointed again
	// (every trigger defers to the flag): give it one. enqueueCkpt skips
	// the bins whose request survived.
	sort.Slice(pending, func(i, j int) bool { return pending[i].Less(pending[j]) })
	for _, pid := range pending {
		m.slb.enqueueCkpt(pid, trigUpdateCount)
	}
	// Duplicates from partially sorted chains are absorbed by lenient
	// replay.
	m.drainCommitted()
}

// ResetStableState frees every stable log structure on hw (releasing
// its stable-memory reservations, including the per-stream SLB arenas)
// and installs a fresh Stable Log Tail seeded with the given root; the
// SLB root slot is cleared so the next manager's newSLB builds a fresh
// buffer with its own configured stream count. Media-failure recovery uses it after rebuilding the
// database from the archive: the old bins' log records have been
// replayed into the rebuilt store, so the stable log starts over.
func ResetStableState(hw *Hardware, root *catalog.Root) {
	if st, _ := hw.Stable.Root(slbRootKey).(*slbState); st != nil {
		for _, ls := range st.streams {
			ls.mu.Lock()
			for _, c := range ls.uncommitted {
				c.free()
			}
			for _, c := range ls.committed {
				c.free()
			}
			ls.uncommitted = make(map[uint64]*txnChain)
			ls.committed = nil
			ls.mu.Unlock()
		}
		// Chains freed, regions empty: return the streams' extents to
		// the shared pool. The next newSLB sees an all-empty buffer and
		// reshards it with fresh arenas per its config.
		st.releaseArenas()
		hw.Stable.SetRoot(slbRootKey, nil)
	}
	if st, _ := hw.Stable.Root(sltRootKey).(*sltState); st != nil {
		st.mu.Lock()
		for _, b := range st.bins {
			if b.cur != nil {
				b.cur.Free()
			}
			hw.Stable.Release(binInfoBytes)
		}
		st.mu.Unlock()
	}
	fresh := newSLTState()
	if root != nil {
		fresh.root = root.Clone()
	}
	hw.Stable.SetRoot(sltRootKey, fresh)
}

// EnsureRootCounters raises the stable allocation counters to at least
// the given values (rebuild paths that derive them from the catalogs).
func (m *Manager) EnsureRootCounters(nextRel, nextIdx uint64, nextSeg uint32) {
	m.slt.updateRoot(func(r *catalog.Root) {
		if r.NextRelID < nextRel {
			r.NextRelID = nextRel
		}
		if r.NextIdxID < nextIdx {
			r.NextIdxID = nextIdx
		}
		if r.NextSeg < nextSeg {
			r.NextSeg = nextSeg
		}
	})
}

// MarkTrackUsed records a live checkpoint image during the facade's
// catalog scan on restart.
func (m *Manager) MarkTrackUsed(t simdisk.TrackLoc) { m.dmap.markUsed(t) }

// Resume installs on-demand recovery (§2.5 method 2: transactions that
// reference an unrecovered partition generate a restore process for it)
// and, if configured, the background sweep that restores the remaining
// partitions at low priority between regular transactions.
func (m *Manager) Resume() {
	m.store.SetResolve(func(pid addr.PartitionID) (*mm.Partition, error) {
		track := simdisk.NilTrack
		if m.cb.Locate != nil {
			t, err := m.cb.Locate(pid)
			if err != nil {
				return nil, err
			}
			track = t
		}
		return m.RecoverPartition(pid, track)
	})
	if m.cfg.BackgroundRecovery {
		m.wg.Add(1)
		go m.backgroundSweep()
	}
}

// backgroundSweep issues recovery transactions, at low priority, for
// partitions that have not been requested by regular transactions
// (§2.5: "between regular transactions, a system transaction passes
// through the catalogs and issues recovery transactions ... for
// partitions that have not yet been recovered").
func (m *Manager) backgroundSweep() {
	defer m.wg.Done()
	m.runSweep()
}

// Sweep runs one background-sweep pass synchronously on the calling
// goroutine: benchmarks (`paperbench restart`) and tests use it to
// time the sweep exactly, without Resume's goroutine hand-off.
func (m *Manager) Sweep() { m.runSweep() }

// runSweep fans partition recovery out across cfg.RecoveryWorkers
// goroutines (default GOMAXPROCS), worker w taking partitions w,
// w+W, w+2W, … — deterministic round-robin shards, so the split does
// not depend on host scheduling. Every worker demands partitions
// through the store's resolve path, so a sweep worker and a concurrent
// foreground transaction — or two workers handed overlapping demand —
// coalesce into a single recovery transaction per partition and never
// install racing copies. Closing m.stop interrupts every worker before
// its next partition; in-flight recoveries finish whole.
func (m *Manager) runSweep() {
	if m.cb.AllPartitions == nil {
		return
	}
	sweepStart := time.Now()
	// SweepBegin Arg=1 marks a heat-ordered sweep (the ordering decision
	// depends only on config + the recovered ranking, both fixed by now).
	ordered := !m.cfg.DisableHeatOrdering && m.prog.totalWeight > 0
	m.prog.heatOrdered.Store(ordered)
	var orderedArg uint64
	if ordered {
		orderedArg = 1
	}
	m.tracer.Emit(trace.Event{Kind: trace.KindSweepBegin, Arg: orderedArg})
	var restored, failed atomic.Int64
	defer func() {
		m.prog.sweepDone.Store(true)
		m.metrics.BackgroundSweep.ObserveSince(sweepStart)
		if secs := time.Since(sweepStart).Seconds(); secs > 0 {
			m.metrics.SweepPartsPerSec.Set(int64(float64(restored.Load()) / secs))
		}
		m.tracer.Emit(trace.Event{
			Kind: trace.KindSweepEnd,
			Arg:  uint64(restored.Load()), Arg2: uint64(failed.Load()),
		})
	}()
	pids, err := m.cb.AllPartitions()
	if err != nil {
		// A sweep that cannot enumerate the catalogs must not end
		// looking "complete": count it, mark the timeline, and log it.
		m.metrics.RecoverySweepErrors.Add(1)
		m.tracer.Emit(trace.Event{Kind: trace.KindSweepError, Str: err.Error()})
		log.Printf("mmdb/core: background sweep: enumerating partitions: %v", err)
		return
	}
	if ordered {
		// Sort a copy: the callback may hand out a live catalog slice,
		// and reordering it in place would corrupt the caller's notion
		// of catalog order.
		pids = append([]addr.PartitionID(nil), pids...)
		m.orderByHeat(pids)
	}
	m.prog.partsTotal.Store(int64(len(pids)))
	m.metrics.RestartPartsTotal.Set(int64(len(pids)))
	// Mark the timeline roughly every 1/16th of the sweep so an operator
	// tailing the trace (or /recovery) sees restart advancing.
	progressStep := int64(len(pids) / 16)
	if progressStep < 1 {
		progressStep = 1
	}
	workers := m.cfg.RecoveryWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pids) {
		workers = len(pids)
	}
	if workers < 1 {
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			workerStart := time.Now()
			m.tracer.Emit(trace.Event{Kind: trace.KindSweepWorkerBegin, Arg: uint64(worker)})
			var n uint64
			defer func() {
				m.metrics.SweepWorkerTime.ObserveSince(workerStart)
				m.tracer.Emit(trace.Event{
					Kind: trace.KindSweepWorkerEnd,
					Arg:  uint64(worker), Arg2: n,
				})
			}()
			for i := worker; i < len(pids); i += workers {
				select {
				case <-m.stop:
					return
				default:
				}
				pid := pids[i]
				if m.store.Resident(pid) {
					continue
				}
				if m.sweepRecover(pid) {
					n++
					if r := restored.Add(1); r%progressStep == 0 || r == int64(len(pids)) {
						m.tracer.Emit(trace.Event{
							Kind: trace.KindSweepProgress,
							Arg:  uint64(r), Arg2: uint64(len(pids)),
						})
					}
				} else {
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
}

// sweepRecover demands one partition through the store (coalescing with
// foreground recovery), retrying a transient injected I/O error once
// before giving up. Every failed attempt counts in RecoverySweepErrors;
// it reports whether the partition ended up resident.
func (m *Manager) sweepRecover(pid addr.PartitionID) bool {
	for attempt := 0; ; attempt++ {
		_, err := m.store.Partition(pid)
		if err == nil {
			return true
		}
		m.metrics.RecoverySweepErrors.Add(1)
		m.tracer.Emit(pidEvent(trace.Event{Kind: trace.KindSweepError, Str: err.Error()}, pid))
		if attempt == 0 && errors.Is(err, fault.ErrInjected) {
			continue // transient ioerr: one retry
		}
		log.Printf("mmdb/core: background sweep: recovering %v: %v", pid, err)
		return false
	}
}

// repairLostImage handles a checkpoint image RecoverPartition cannot
// use — a stale catalog track, a bad envelope checksum, or structural
// rot. The loss of the image is counted and traced (it is one lost
// image, not one lost record), then the partition is rebuilt from its
// archived history plus the resident log window (§2.6). The bin's page
// list is excluded from the rebuild because the caller replays it
// afterwards — replaying those pages twice, the second time after newer
// ones, would resurrect deleted slots.
//
// An injected fault (or the crash itself) during the rebuild propagates
// so the restart retries; any other rebuild failure degrades to the
// announced-empty-image path, counted under archive/rebuild_failed.
func (m *Manager) repairLostImage(pid addr.PartitionID, imgBytes int, cause error) (*mm.Partition, error) {
	m.metrics.CorruptDetected.Inc()
	m.metrics.ImagesQuarantined.Inc()
	m.tracer.Emit(pidEvent(trace.Event{
		Kind: trace.KindRecordQuarantine, Arg2: uint64(imgBytes), Str: cause.Error(),
	}, pid))

	skip := make(map[simdisk.LSN]bool)
	m.slt.st.mu.Lock()
	if b, ok := m.slt.st.bins[pid]; ok {
		for _, lsn := range b.pages {
			skip[lsn] = true
		}
	}
	m.slt.st.mu.Unlock()

	start := time.Now()
	res, rerr := archive.RebuildPartition(m.hw.Arch, m.hw.Log, pid, m.cfg.PartitionSize, skip)
	if rerr != nil {
		if fault.IsFault(rerr) {
			return nil, fmt.Errorf("core: archive rebuild of %v: %w", pid, rerr)
		}
		m.metrics.ArchRebuildFailed.Inc()
		m.tracer.Emit(pidEvent(trace.Event{
			Kind: trace.KindArchiveRebuild, Str: rerr.Error(),
		}, pid))
		return mm.NewPartition(pid, m.cfg.PartitionSize), nil
	}
	if res.Damaged > 0 {
		// Rot inside the archive itself: skipped pages cost records,
		// but every one was detected, never applied.
		m.metrics.CorruptDetected.Add(int64(res.Damaged))
	}
	m.metrics.ArchRebuilds.Inc()
	m.metrics.ArchRebuildTime.ObserveSince(start)
	m.tracer.Emit(pidEvent(trace.Event{
		Kind: trace.KindArchiveRebuild, Arg: uint64(res.Pages), Arg2: uint64(res.Damaged),
	}, pid))
	return res.Partition, nil
}

// RecoverPartition runs one recovery transaction (§2.5): read the
// partition's checkpoint image from the checkpoint disk, read its log
// pages (scheduled in originally-written order via the page list /
// directory), apply the records, then apply the records still in the
// partition's bin in the Stable Log Tail.
func (m *Manager) RecoverPartition(pid addr.PartitionID, track simdisk.TrackLoc) (*mm.Partition, error) {
	recStart := time.Now()
	var p *mm.Partition
	if track != simdisk.NilTrack {
		blob, err := m.hw.Ckpt.ReadTrack(track)
		if err != nil && !errors.Is(err, simdisk.ErrNoSuchTrack) {
			// Transient faults and whole-disk failures propagate: the
			// restart retries, or escalates to media-failure recovery.
			return nil, fmt.Errorf("core: reading checkpoint image of %v: %w", pid, err)
		}
		if err == nil {
			// The envelope CRC catches content rot under valid sector
			// ECC; FromImage catches structural rot. Either failure
			// means the image cannot be trusted at all.
			var img []byte
			if img, err = openImage(blob); err == nil {
				p, err = mm.FromImage(pid, img)
			}
		}
		if err != nil {
			// The image is lost: the catalog points at a track the disk
			// no longer holds (byte rot can manufacture this — a
			// quarantined catalog REDO record loses a checkpoint
			// relocation, leaving the catalog aimed at a superseded,
			// physically freed track), or the image bytes rotted in
			// place. Either way this is a repair, not a loss: the
			// partition's full history is still in the archive segments
			// plus the resident log window (§2.6), so rebuild it from
			// there and let the bin replay below stack on top, exactly
			// as it would have on the image. Only when the archive
			// itself cannot serve does recovery degrade to the old
			// announced-empty-image path.
			p, err = m.repairLostImage(pid, len(blob), err)
			if err != nil {
				return nil, err
			}
		}
	} else {
		p = mm.NewPartition(pid, m.cfg.PartitionSize)
	}

	// Snapshot the bin's page list and current buffer under the SLT
	// mutex. No new records for this partition can arrive while it is
	// non-resident (transactions cannot touch it before recovery),
	// so the snapshot is complete.
	m.slt.st.mu.Lock()
	var pages []simdisk.LSN
	var curRecs []byte
	if b, ok := m.slt.st.bins[pid]; ok {
		pages = append(pages, b.pages...)
		if b.cur != nil {
			curRecs = append(curRecs, b.cur.Bytes()...)
		}
	}
	m.slt.st.mu.Unlock()

	// applyClean cuts a record stream back to its longest cleanly
	// decodable prefix before applying it. A record whose CRC no longer
	// matches is quarantined — counted and traced, never applied — and
	// the boundaries past it cannot be resynchronised in a varint
	// stream, so the corrupt suffix is surrendered with it.
	applied := 0
	applyClean := func(lsn simdisk.LSN, buf []byte) error {
		if valid := wal.ValidPrefix(buf); valid < len(buf) {
			_, _, derr := wal.Decode(buf[valid:])
			m.metrics.CorruptDetected.Inc()
			m.metrics.QuarantinedRecords.Inc()
			m.tracer.Emit(pidEvent(trace.Event{
				Kind: trace.KindRecordQuarantine, LSN: uint64(lsn),
				Arg: uint64(valid), Arg2: uint64(len(buf) - valid),
				Str: derr.Error(),
			}, pid))
			buf = buf[:valid]
		}
		n, err := applyRecords(p, buf)
		applied += n
		return err
	}
	for _, lsn := range pages {
		// Verified duplex read (§2.2): a page that passes sector ECC but
		// fails its checksum or partition-address check falls back to the
		// mirror copy, repairing the rotted primary from it.
		var pg *wal.Page
		_, err := m.hw.Log.ReadChecked(lsn, func(b []byte) error {
			dp, derr := wal.DecodePage(b)
			if derr != nil {
				return derr
			}
			if derr := dp.CheckPID(pid); derr != nil {
				return derr
			}
			pg = dp
			return nil
		})
		if err != nil {
			if errors.Is(err, wal.ErrCorrupt) {
				// Both duplexed copies rotted: quarantine the whole page.
				m.metrics.CorruptDetected.Inc()
				m.metrics.QuarantinedRecords.Inc()
				m.tracer.Emit(pidEvent(trace.Event{
					Kind: trace.KindRecordQuarantine, LSN: uint64(lsn),
					Str: err.Error(),
				}, pid))
				continue
			}
			return nil, fmt.Errorf("core: reading log page %d of %v: %w", lsn, pid, err)
		}
		if err := applyClean(lsn, pg.Records); err != nil {
			return nil, err
		}
		m.metrics.RecoveryLogPages.Add(1)
	}
	if len(curRecs) > 0 {
		if err := applyClean(simdisk.NilLSN, curRecs); err != nil {
			return nil, err
		}
	}
	m.metrics.PartsRecovered.Add(1)
	m.metrics.PartitionRecovery.ObserveSince(recStart)
	m.noteRecovered(pid)
	m.tracer.Emit(pidEvent(trace.Event{
		Kind: trace.KindPartRedo,
		Arg:  uint64(applied), Arg2: uint64(len(pages)),
	}, pid))
	return p, nil
}

// orderByHeat reorders pids so the recovered pre-crash heat ranking
// comes first, hottest partition leading; partitions without pre-crash
// heat keep their catalog order at the tail. The sweep's round-robin
// shards then hand the hottest partitions to the workers first, which
// is what makes time-to-p99-restored drop on skewed workloads.
func (m *Manager) orderByHeat(pids []addr.PartitionID) {
	weights := m.prog.weights
	sort.SliceStable(pids, func(i, j int) bool {
		return weights[pids[i]] > weights[pids[j]]
	})
}
