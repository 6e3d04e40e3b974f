package core

// Post-crash restart (§2.5), in two phases. The synchronous phase —
// Restart — runs before the first transaction: it rolls back
// uncommitted SLB chains, sorts the committed chains into the Stable
// Log Tail's partition bins in commit order, and restores the catalog
// partitions from the well-known stable root. Everything else is
// deferred: Resume installs on-demand recovery (a transaction touching
// an unrecovered partition triggers its restore) and the parallel
// background sweep that restores the remainder, so time to first
// transaction is independent of database size.

import (
	"errors"
	"fmt"
	"log"
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
//     volatile memory; a chain whose commit crashed before it was
//     listed is one of them);
//  2. synchronously re-sort the committed chains, in commit order, into
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
	m.drainStableOnly()
	root := m.slt.rootCopy()
	// Restore the catalogs first (§2.5): their partition addresses
	// and checkpoint locations come from the well-known root.
	m.store.EnsureSegment(addr.SegRelationCatalog)
	m.store.EnsureSegment(addr.SegIndexCatalog)
	// The loop also rebuilds the checkpoint-disk allocation map's
	// root-known part as it goes (the facade marks
	// catalog-derived tracks after decoding): marking a track the
	// moment its partition is restored means a future early return
	// cannot leave the map missing live catalog tracks.
	for _, cat := range []struct {
		seg   addr.SegmentID
		parts []catalog.PartState
	}{{addr.SegRelationCatalog, root.RelCatParts}, {addr.SegIndexCatalog, root.IdxCatParts}} {
		for _, ps := range cat.parts {
			pid := addr.PartitionID{Segment: cat.seg, Part: ps.Part}
			p, err := m.restorePartition(pid, ps.Track)
			if err != nil {
				return nil, fmt.Errorf("core: restoring catalog partition %v: %w", pid, err)
			}
			m.store.Install(p)
			m.dmap.markUsed(ps.Track)
		}
	}
	return root, nil
}

// drainStableOnly performs the stable-log half of restart without
// touching the checkpoint disks: uncommitted SLB chains are discarded
// and committed-but-unsorted chains sorted into the bins. Its cost
// follows the SLB's contents, not the bytes the bins hold: a tail the
// crash tore is cut when its bin is first touched (checkTailLocked).
// Checkpoint requests need nothing here: a bin's trigger is the only
// record of one, and attaching the SLT re-queued every pending bin.
func (m *Manager) drainStableOnly() {
	m.slb.discardUncommitted()
	// Duplicates from partially sorted chains are absorbed by lenient
	// replay.
	m.sortMu.Lock()
	m.drain()
	m.sortMu.Unlock()
}

// MarkTrackUsed records a live checkpoint image during the facade's
// catalog scan on restart.
func (m *Manager) MarkTrackUsed(t simdisk.TrackLoc) { m.dmap.markUsed(t) }

// Resume installs on-demand recovery (§2.5 method 2: transactions that
// reference an unrecovered partition generate a restore process for it)
// and, when cfg.RecoveryWorkers is above 0, the background sweep that
// restores the remaining partitions at low priority between regular
// transactions.
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
		return m.restorePartition(pid, track)
	})
	if m.cfg.RecoveryWorkers > 0 {
		m.wg.Add(1)
		m.sweeping.Store(true)
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
	m.Sweep(false, m.cfg.RecoveryWorkers)
	m.sweeping.Store(false)
	m.signalIdle()
}

// Sweep runs one background-sweep pass synchronously on the calling
// goroutine, fanning partition recovery out across workers goroutines:
// worker w takes partitions w, w+W, w+2W, … — deterministic round-robin
// shards, so the split does not depend on host scheduling. Resume's
// sweep calls it with cfg.RecoveryWorkers; benchmarks (`paperbench
// restart`) and tests call it directly on a manager configured with
// RecoveryWorkers 0, to time the sweep exactly at the width they pick.
// catalogOrder keeps the directory order even when a heat ranking was
// recovered — the unordered baseline `paperbench restart` compares
// time-to-p99-restored against; the product's sweep never does.
//
// Every worker demands partitions through the store's resolve path, so
// a sweep worker and a concurrent foreground transaction — or two
// workers handed overlapping demand — coalesce into a single recovery
// transaction per partition and never install racing copies. Closing
// m.stop interrupts every worker before its next partition; in-flight
// recoveries finish whole.
func (m *Manager) Sweep(catalogOrder bool, workers int) {
	if m.cb.AllPartitions == nil {
		return
	}
	sweepStart := time.Now()
	// SweepBegin Arg=1 marks a heat-ordered sweep (the ordering decision
	// depends only on the recovered ranking, fixed by now).
	ordered := !catalogOrder && m.prog.totalWeight > 0
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

// logPage is one log page of a partition's REDO history: where it was
// written and the record bytes it carried.
type logPage struct {
	lsn  simdisk.LSN
	recs []byte
}

// restorePartition is the recovery transaction (§2.5), and the only
// one: crash restart, checkpoint-rot repair and media failure (§2.6)
// are the same operation and differ only in where the partition's log
// pages come from.
//
//   - base: the checkpoint image when its track reads and validates,
//     else an empty partition;
//   - pages: the bin's page list (read in originally-written order)
//     when the base is good or the partition was never checkpointed,
//     else the partition's whole history, archive ∪ resident log window;
//   - tail: the records still in the partition's bin in the Stable Log
//     Tail.
func (m *Manager) restorePartition(pid addr.PartitionID, track simdisk.TrackLoc) (*mm.Partition, error) {
	recStart := time.Now()
	var p *mm.Partition
	var lost error // why the image the catalog names cannot be used
	imgBytes := 0
	if track != simdisk.NilTrack {
		// The track is read once, split at its CRC trailer: img is a
		// read-only view of the image, which the partition adopts
		// copy-on-write. A partition nothing writes keeps reading the
		// track and costs no copy; the first replayed or transactional
		// write copies img, without the trailer, into an exact-size
		// buffer. (Copying the PartitionSize + 4 envelope instead would
		// pin an 8 KB page past the 48 KB size class per written
		// partition, EXPERIMENTS.md B24.)
		img, crc, err := m.hw.Ckpt.ReadTrackSplit(track, 4)
		if err != nil && !errors.Is(err, simdisk.ErrNoSuchTrack) {
			// Transient faults and whole-disk failures propagate: the
			// restart retries, or escalates to media-failure recovery.
			return nil, fmt.Errorf("core: reading checkpoint image of %v: %w", pid, err)
		}
		if err == nil {
			// The envelope CRC catches content rot under valid sector
			// ECC; AdoptImage catches structural rot. Either failure
			// means the image cannot be trusted at all.
			if err = openImage(img, crc); err == nil {
				p, err = mm.AdoptImage(pid, img)
			}
		}
		lost, imgBytes = err, len(img)+len(crc)
	}
	if track == simdisk.NilTrack || lost != nil {
		p = mm.NewPartition(pid, m.cfg.PartitionSize)
	}

	// Snapshot the bin's page list and current buffer under the SLT
	// mutex. No new records for this partition can arrive while it is
	// non-resident (transactions cannot touch it before recovery),
	// so the snapshot is complete.
	m.slt.st.mu.Lock()
	var lsns []simdisk.LSN
	var tail []byte
	unchecked := false // the tail may still end in a record the crash tore
	if b, ok := m.slt.st.bins[pid]; ok {
		lsns = append(lsns, b.pages...)
		if b.cur != nil {
			tail = append(tail, b.cur.Bytes()...)
		}
		unchecked = b.checked != m.slt.st.boot
	}
	m.slt.st.mu.Unlock()

	var pages []logPage
	var err error
	rebuilt := false
	if lost != nil {
		// The image is lost: the catalog points at a track the disk no
		// longer holds (a replaced checkpoint disk set; or byte rot — a
		// quarantined catalog REDO record loses a checkpoint relocation,
		// leaving the catalog aimed at a superseded, physically freed
		// track), or the image bytes rotted in place. Either way this is
		// a repair, not a loss: the partition's history from its first
		// log page is still in the archive plus the resident log
		// window (§2.6), bin pages included, so it replaces the image and
		// the bin's page list together.
		//
		// The detection is recorded now; the quarantine is counted with
		// its outcome once the history is in hand, so every quarantined
		// image is matched by exactly one rebuild (or one failure).
		m.metrics.CorruptDetected.Inc()
		m.tracer.Emit(pidEvent(trace.Event{
			Kind: trace.KindRecordQuarantine, Arg2: uint64(imgBytes), Str: lost.Error(),
		}, pid))
		var damaged int
		pages, damaged, err = partitionHistory(m.hw.Arch, m.hw.Log, m.slt.archivedTo, pid)
		if fault.IsFault(err) {
			// An injected fault or the crash itself: the restart retries,
			// starting over from the image.
			return nil, fmt.Errorf("core: reading the history of %v: %w", pid, err)
		}
		// Rot inside the history itself costs records, but every skipped
		// page was detected, never applied.
		m.metrics.CorruptDetected.Add(int64(damaged))
		m.metrics.ImagesQuarantined.Inc()
		rebuilt = err == nil
		if rebuilt {
			m.metrics.ArchRebuilds.Inc()
			m.tracer.Emit(pidEvent(trace.Event{
				Kind: trace.KindArchiveRebuild, Arg: uint64(len(pages)), Arg2: uint64(damaged),
			}, pid))
		} else {
			// The archive itself cannot serve: degrade to an announced
			// empty image under whatever the bin still lists.
			m.metrics.ArchRebuildFailed.Inc()
			m.tracer.Emit(pidEvent(trace.Event{
				Kind: trace.KindArchiveRebuild, Str: err.Error(),
			}, pid))
		}
	}
	if !rebuilt {
		if pages, err = m.binPages(pid, lsns); err != nil {
			return nil, err
		}
	}

	// The tail replays last, as one more page that has no LSN yet. When
	// this is the bin's first touch since the crash, the walk that
	// replays the tail is also the walk that finds where the crash tore
	// it, and the cut is handed back to the bin; past that first touch a
	// tail that fails to decode has rotted like any page.
	applied := 0
	for i, pg := range append(pages, logPage{lsn: simdisk.NilLSN, recs: tail}) {
		n, clean, cut, err := replayPrefix(p, pg.recs)
		if err != nil {
			return nil, err
		}
		applied += n
		if i == len(pages) && unchecked {
			m.settleTail(pid, clean, cut)
		} else if cut != nil {
			m.quarantineSuffix(pidEvent(trace.Event{LSN: uint64(pg.lsn)}, pid), clean, len(pg.recs), cut, false)
		}
	}
	m.metrics.RecoveryLogPages.Add(int64(len(pages)))
	if rebuilt {
		m.metrics.ArchRebuildTime.ObserveSince(recStart)
	}
	m.metrics.PartsRecovered.Add(1)
	if p.Shared() {
		m.metrics.ImagesShared.Inc()
	}
	m.metrics.PartitionRecovery.ObserveSince(recStart)
	m.noteRecovered(pid)
	m.tracer.Emit(pidEvent(trace.Event{
		Kind: trace.KindPartRedo,
		Arg:  uint64(applied), Arg2: uint64(len(pages)),
	}, pid))
	return p, nil
}

// binPages reads the pages of a bin's page list back from the log
// disks, in written order. A page rotted on both copies is quarantined
// whole.
func (m *Manager) binPages(pid addr.PartitionID, lsns []simdisk.LSN) ([]logPage, error) {
	pages := make([]logPage, 0, len(lsns))
	for _, lsn := range lsns {
		pg, _, err := readLogPage(m.hw.Log, lsn, &pid)
		if errors.Is(err, wal.ErrCorrupt) {
			m.metrics.CorruptDetected.Inc()
			m.metrics.QuarantinedRecords.Inc()
			m.tracer.Emit(pidEvent(trace.Event{
				Kind: trace.KindRecordQuarantine, LSN: uint64(lsn),
				Str: err.Error(),
			}, pid))
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading log page %d of %v: %w", lsn, pid, err)
		}
		pages = append(pages, logPage{lsn: lsn, recs: pg.Records})
	}
	return pages, nil
}

// logWindow is the resident log as recovery reads it (*simdisk.DuplexLog);
// an interface so that a test can roll a page into the archive between
// the history reader's two scans.
type logWindow interface {
	NextLSN() simdisk.LSN
	ReadChecked(lsn simdisk.LSN, check func([]byte) error) ([]byte, error)
}

// readLogPage is one verified duplex read (§2.2): a copy that passes
// sector ECC but fails the page checksum — or, with want given, the
// partition-address check — falls back to the mirror, and the rotted
// primary is repaired from it.
func readLogPage(log logWindow, lsn simdisk.LSN, want *addr.PartitionID) (pg *wal.Page, raw []byte, err error) {
	raw, err = log.ReadChecked(lsn, func(b []byte) (err error) {
		if pg, err = wal.DecodePage(b); err == nil && want != nil {
			err = pg.CheckPID(*want)
		}
		return err
	})
	return pg, raw, err
}

// partitionHistory returns every surviving log page of pid — archived
// pages plus its pages in the resident log window — each LSN once, in
// LSN order, and the number of pages skipped as detected rot: an
// archived page the archive reports decayed, or one that no longer
// decodes, costs exactly the records it held.
//
// Each LSN once: rollover appends a page to the archive before it
// drops the log copy, and a crashed rollover retries, so an LSN can be
// live on both media; replayed twice, old operations would land after
// newer ones and resurrect deleted slots.
//
// Rollover moves pages log → archive under the SLT mutex while this
// reads archive then log with no lock, so a page archived and dropped
// in between is on neither side of one pass. archivedTo (the highest
// LSN rolled and dropped) is read before and after, and the pass re-run
// when it moved; pages only move one way. Nothing at or below it is
// still on the log disks, so the window scan starts just past it.
//
// The error is a medium refusing to serve (an injected fault or the
// crash itself): retrying the recovery is correct.
func partitionHistory(arch *archive.Store, log logWindow, archivedTo func() simdisk.LSN, pid addr.PartitionID) (pages []logPage, damaged int, err error) {
	for {
		from := archivedTo()
		pages, damaged = nil, 0
		seen := make(map[simdisk.LSN]bool)
		err = arch.ScanPartition(pid, func(lsn simdisk.LSN, raw []byte) error {
			// raw is nil for a page the archive medium decayed under,
			// which fails the decode like rot in the archived copy.
			pg, derr := wal.DecodePage(raw)
			if derr != nil || pg.PID != pid {
				damaged++
				return nil
			}
			seen[lsn] = true
			pages = append(pages, logPage{lsn: lsn, recs: pg.Records})
			return nil
		})
		if err != nil {
			return nil, damaged, err
		}
		for lsn, end := from+1, log.NextLSN(); lsn < end; lsn++ {
			if seen[lsn] {
				continue
			}
			pg, _, rerr := readLogPage(log, lsn, nil)
			if rerr != nil {
				if fault.IsFault(rerr) {
					return nil, damaged, rerr
				}
				if errors.Is(rerr, wal.ErrCorrupt) {
					damaged++ // both duplexed copies rotted
				}
				continue // never written: a hole left by a crashed append
			}
			if pg.PID == pid {
				pages = append(pages, logPage{lsn: lsn, recs: pg.Records})
			}
		}
		if archivedTo() == from {
			break
		}
	}
	// Archived pages come first and window pages after, already ascending
	// unless a page damaged in the archive survives on the log.
	sort.Slice(pages, func(i, j int) bool { return pages[i].lsn < pages[j].lsn })
	return pages, damaged, nil
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
