// Package mmdb is a memory-resident relational database with the
// recovery architecture of Lehman & Carey, "A Recovery Algorithm for a
// High-Performance Memory-Resident Database System" (SIGMOD 1987):
//
//   - the primary copy of the database lives entirely in (volatile)
//     main memory, organised as per-object segments of fixed-size
//     partitions;
//   - transactions commit instantly by placing REDO records in a
//     stable-reliable-memory log buffer; UNDO stays volatile;
//   - a dedicated recovery processor groups committed log records into
//     per-partition bins in a stable log tail and writes full bin pages
//     to duplexed log disks;
//   - checkpoints are per-partition, triggered by update count or by
//     age as the log window advances, amortising their cost over a
//     controlled number of updates;
//   - after a crash, the system catalogs are restored first and
//     transaction processing resumes immediately; partitions are then
//     recovered on demand, with a background sweep restoring the rest.
//
// The stable memory, dual processors, and disk hardware are simulated
// (see DESIGN.md for the substitutions); DB.Crash returns the
// crash-surviving hardware and Recover rebuilds a database from it.
package mmdb

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"mmdb/internal/addr"
	"mmdb/internal/catalog"
	"mmdb/internal/core"
	"mmdb/internal/heap"
	"mmdb/internal/lock"
	"mmdb/internal/metrics"
	"mmdb/internal/mm"
	"mmdb/internal/simdisk"
	"mmdb/internal/trace"
	"mmdb/internal/txn"
)

// Config is the recovery-architecture configuration; see
// core.DefaultConfig for the paper's Table 2 environment.
type Config = core.Config

// DefaultConfig returns the paper's environment.
func DefaultConfig() Config { return core.DefaultConfig() }

// MetricsSnapshot is a point-in-time copy of every instrument in the
// database's metrics registry: per-subsystem counters, gauges, and
// latency histograms with p50/p95/p99. It is plain data — safe to
// retain, compare, and marshal to JSON.
type MetricsSnapshot = metrics.Snapshot

// TraceEvent is one structured trace event; see docs/TRACING.md for the
// event catalog. Enabled via Config.FlightRecorderBytes, the size of the
// crash-surviving stable ring every event is written to.
type TraceEvent = trace.Event

// Hardware is the crash-surviving hardware bundle.
type Hardware = core.Hardware

// RecoveryProgress is the live restart-progress view served by the ops
// plane's /recovery endpoint; HotPartition is one entry of its top-hot
// list. See DB.RecoveryProgress.
type (
	RecoveryProgress = core.RecoveryProgress
	HotPartition     = core.HotPartition
)

// Errors returned by the facade.
var (
	ErrExists   = errors.New("mmdb: object already exists")
	ErrNotFound = errors.New("mmdb: not found")
	ErrClosed   = errors.New("mmdb: database closed")
)

// DB is a memory-resident database instance.
type DB struct {
	cfg   Config
	mgr   *core.Manager
	store *mm.Store
	locks *lock.Manager

	ddlMu sync.Mutex // serialises DDL

	mu          sync.RWMutex
	rels        map[string]*Relation
	relByID     map[uint64]*Relation
	segOwner    map[addr.SegmentID]uint64 // any segment -> owning relation ID
	relDescAddr map[uint64]addr.EntityAddr
	idxDescAddr map[uint64]addr.EntityAddr
	closed      bool
}

// Open creates a fresh database on newly provisioned hardware.
func Open(cfg Config) (*DB, error) {
	hw, err := core.NewHardware(cfg)
	if err != nil {
		return nil, err
	}
	store := mm.NewStore(cfg.PartitionSize)
	locks := lock.NewManager()
	mgr, err := core.New(hw, cfg, store, locks)
	if err != nil {
		return nil, err
	}
	db := newDB(cfg, mgr, store, locks)
	store.EnsureSegment(addr.SegRelationCatalog)
	store.EnsureSegment(addr.SegIndexCatalog)
	db.wire()
	mgr.Start()
	return db, nil
}

func newDB(cfg Config, mgr *core.Manager, store *mm.Store, locks *lock.Manager) *DB {
	return &DB{
		cfg:         cfg,
		mgr:         mgr,
		store:       store,
		locks:       locks,
		rels:        make(map[string]*Relation),
		relByID:     make(map[uint64]*Relation),
		segOwner:    map[addr.SegmentID]uint64{addr.SegRelationCatalog: catalog.RelIDRelationCatalog, addr.SegIndexCatalog: catalog.RelIDIndexCatalog},
		relDescAddr: make(map[uint64]addr.EntityAddr),
		idxDescAddr: make(map[uint64]addr.EntityAddr),
	}
}

// wire installs the recovery component's catalog callbacks and the
// partition-allocation hook.
func (db *DB) wire() {
	db.mgr.SetCallbacks(core.Callbacks{
		OwnerRel:      db.ownerRel,
		InstallCkpt:   db.installCkpt,
		Locate:        db.locate,
		AllPartitions: db.allPartitions,
	})
	db.mgr.Txns.OnPartAlloc = db.onPartAlloc
}

// ownerRel maps a partition to the relation whose read lock makes it
// transaction-consistent.
func (db *DB) ownerRel(pid addr.PartitionID) (uint64, bool) {
	if pid.Segment == addr.SegRelationCatalog || pid.Segment == addr.SegIndexCatalog {
		return uint64(pid.Segment), true
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	relID, ok := db.segOwner[pid.Segment]
	return relID, ok
}

// onPartAlloc records a freshly allocated partition: catalog partitions
// go into the stable root; object partitions go into their owner's
// catalog descriptor (a logged update inside the allocating txn).
func (db *DB) onPartAlloc(t *txn.Txn, pid addr.PartitionID) error {
	switch pid.Segment {
	case addr.SegRelationCatalog, addr.SegIndexCatalog:
		db.mgr.AddCatalogPart(pid)
		return nil
	}
	return db.updateOwnerDesc(t, pid, func(parts []catalog.PartState) []catalog.PartState {
		return append(parts, catalog.PartState{Part: pid.Part, Track: simdisk.NilTrack})
	})
}

// installCkpt performs the logged catalog update for a completed
// checkpoint image write, returning the superseded track.
func (db *DB) installCkpt(t *txn.Txn, pid addr.PartitionID, track simdisk.TrackLoc) (simdisk.TrackLoc, error) {
	switch pid.Segment {
	case addr.SegRelationCatalog, addr.SegIndexCatalog:
		// Catalog partitions are recorded in the stable root, which
		// the recovery component updates at commit time itself.
		return db.mgr.LocateCatalogPart(pid), nil
	}
	old := simdisk.NilTrack
	err := db.updateOwnerDesc(t, pid, func(parts []catalog.PartState) []catalog.PartState {
		for i := range parts {
			if parts[i].Part == pid.Part {
				old = parts[i].Track
				parts[i].Track = track
			}
		}
		return parts
	})
	return old, err
}

// ownerDesc returns the address of the catalog descriptor that lists
// seg's partitions: its relation's, or (index) one of that relation's
// indexes'.
func (db *DB) ownerDesc(seg addr.SegmentID) (da addr.EntityAddr, index bool, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	relID, ok := db.segOwner[seg]
	rel := db.relByID[relID]
	if !ok || rel == nil {
		return addr.Nil, false, fmt.Errorf("%w: no owner for segment %d", ErrNotFound, seg)
	}
	if seg == rel.seg {
		if da, ok := db.relDescAddr[rel.relID]; ok {
			return da, false, nil
		}
		return addr.Nil, false, fmt.Errorf("%w: relation descriptor for %d", ErrNotFound, rel.relID)
	}
	idx := rel.indexBySeg(seg)
	if idx == nil {
		return addr.Nil, false, fmt.Errorf("%w: no index for segment %d", ErrNotFound, seg)
	}
	if da, ok := db.idxDescAddr[idx.idxID]; ok {
		return da, true, nil
	}
	return addr.Nil, true, fmt.Errorf("%w: index descriptor for %d", ErrNotFound, idx.idxID)
}

// lockOwnerDesc is ownerDesc with the catalog locks an update of the
// descriptor needs, taken by transaction t.
func (db *DB) lockOwnerDesc(t *txn.Txn, seg addr.SegmentID) (da addr.EntityAddr, index bool, err error) {
	if da, index, err = db.ownerDesc(seg); err != nil {
		return addr.Nil, false, err
	}
	cat := catalog.RelIDRelationCatalog
	if index {
		cat = catalog.RelIDIndexCatalog
	}
	if err := t.LockRelation(cat, lock.IX); err != nil {
		return addr.Nil, false, err
	}
	return da, index, t.LockEntity(da, lock.X)
}

// updateOwnerDesc applies fn to the partition list of the catalog
// descriptor owning pid's segment, with proper catalog locking, inside
// transaction t, and logs the descriptor whole.
func (db *DB) updateOwnerDesc(t *txn.Txn, pid addr.PartitionID, fn func([]catalog.PartState) []catalog.PartState) error {
	da, index, err := db.lockOwnerDesc(t, pid.Segment)
	if err != nil {
		return err
	}
	raw, err := t.ReadEntity(da)
	if err != nil {
		return err
	}
	if index {
		desc, err := catalog.DecodeIndex(raw)
		if err != nil {
			return err
		}
		desc.Parts = fn(desc.Parts)
		return t.UpdateEntity(da, false, desc.Encode())
	}
	desc, err := catalog.DecodeRelation(raw)
	if err != nil {
		return err
	}
	desc.Parts = fn(desc.Parts)
	return t.UpdateEntity(da, false, desc.Encode())
}

// locate returns a partition's checkpoint image location: one track
// read out of the owner's descriptor where it lies. Every partition
// restore comes through here, so it must not cost a decode of the whole
// partition list.
func (db *DB) locate(pid addr.PartitionID) (simdisk.TrackLoc, error) {
	switch pid.Segment {
	case addr.SegRelationCatalog, addr.SegIndexCatalog:
		return db.mgr.LocateCatalogPart(pid), nil
	}
	da, index, err := db.ownerDesc(pid.Segment)
	if err != nil {
		return simdisk.NilTrack, fmt.Errorf("partition %v: %w", pid, err)
	}
	raw, held, err := db.store.Lend(da)
	if err != nil {
		return simdisk.NilTrack, err
	}
	_, track, err := catalog.TrackAt(raw, index, pid.Part)
	held.Unlock()
	if errors.Is(err, catalog.ErrNoPartition) {
		return simdisk.NilTrack, fmt.Errorf("%w: partition %v not in catalog", ErrNotFound, pid)
	}
	return track, err
}

// partsOfSegment reads the authoritative partition list for a segment
// from the catalog bytes.
func (db *DB) partsOfSegment(seg addr.SegmentID) ([]catalog.PartState, error) {
	da, index, err := db.ownerDesc(seg)
	if err != nil {
		return nil, err
	}
	raw, held, err := db.store.Lend(da)
	if err != nil {
		return nil, err
	}
	defer held.Unlock()
	if index {
		desc, err := catalog.DecodeIndex(raw)
		if err != nil {
			return nil, err
		}
		return desc.Parts, nil
	}
	desc, err := catalog.DecodeRelation(raw)
	if err != nil {
		return nil, err
	}
	return desc.Parts, nil
}

// allPartitions enumerates every partition known to the catalogs, for
// the background recovery sweep.
func (db *DB) allPartitions() ([]addr.PartitionID, error) {
	var out []addr.PartitionID
	root := db.mgr.RootCopy()
	for _, ps := range root.RelCatParts {
		out = append(out, addr.PartitionID{Segment: addr.SegRelationCatalog, Part: ps.Part})
	}
	for _, ps := range root.IdxCatParts {
		out = append(out, addr.PartitionID{Segment: addr.SegIndexCatalog, Part: ps.Part})
	}
	db.mu.RLock()
	rels := make([]*Relation, 0, len(db.relByID))
	for _, r := range db.relByID {
		rels = append(rels, r)
	}
	db.mu.RUnlock()
	for _, rel := range rels {
		parts, err := db.partsOfSegment(rel.seg)
		if err != nil {
			return nil, err
		}
		for _, ps := range parts {
			out = append(out, addr.PartitionID{Segment: rel.seg, Part: ps.Part})
		}
		for _, idx := range rel.Indexes() {
			iparts, err := db.partsOfSegment(idx.seg)
			if err != nil {
				return nil, err
			}
			for _, ps := range iparts {
				out = append(out, addr.PartitionID{Segment: idx.seg, Part: ps.Part})
			}
		}
	}
	return out, nil
}

// Close stops the recovery component gracefully after reaching a
// quiescent stable state (WaitIdle): a background recovery sweep still
// running after Recover is let finish.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	db.closed = true
	db.mu.Unlock()
	db.mgr.WaitIdle()
	db.mgr.Stop()
	return nil
}

// Crash simulates a system failure: both CPUs halt and every volatile
// structure — the primary memory-resident database, lock tables, undo
// space, catalog caches — is lost. The returned Hardware (stable
// memory, disks, tape) is all that survives; pass it to Recover.
//
// The DB is unusable afterwards.
func (db *DB) Crash() *Hardware {
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
	// Seal the flight recorder before halting so a forced crash leaves
	// the same trigger-event-last shape as an injected one.
	db.mgr.SealTrace("crash.forced")
	// Halt the simulated machine first: with a fault injector attached,
	// every in-flight device operation fails from this instant, so the
	// failure is sharp even while goroutines are still winding down.
	db.cfg.FaultInjector.ForceCrash()
	db.mgr.Stop()
	return db.mgr.Hardware()
}

// Recover rebuilds a database from crash-surviving hardware, following
// §2.5: restore the catalogs from the well-known root, resume
// transaction processing immediately, and recover data partitions on
// demand (plus a background sweep when cfg.BackgroundRecovery is set).
//
// When restart itself fails, Recover returns BOTH the error and a dead
// husk of the instance, good only for Crash() and Metrics(): restart
// may have detected and quarantined corruption before dying, and that
// evidence lives in the instance's metrics registry. Callers that
// retry after an injected restart fault (the crash sweep) fold the
// husk's counters into their ledger; everyone else ignores it.
func Recover(hw *Hardware, cfg Config) (*DB, error) {
	store := mm.NewStore(cfg.PartitionSize)
	locks := lock.NewManager()
	mgr, err := core.New(hw, cfg, store, locks)
	if err != nil {
		return nil, err
	}
	db := newDB(cfg, mgr, store, locks)
	// Restart needs no catalog callbacks: catalog locations come from
	// the stable root.
	if _, err := mgr.Restart(); err != nil {
		return db, err
	}
	if err := db.loadCatalogs(); err != nil {
		return db, err
	}
	db.wire()
	mgr.Resume()
	mgr.Start()
	return db, nil
}

// loadCatalogs rebuilds the volatile catalog maps by scanning the
// restored catalog partitions.
func (db *DB) loadCatalogs() error {
	// Relations first.
	for _, p := range db.store.Partitions(addr.SegRelationCatalog) {
		var scanErr error
		p.Slots(func(s addr.Slot, data []byte) bool {
			desc, err := catalog.DecodeRelation(data)
			if err != nil {
				scanErr = err
				return false
			}
			rel := &Relation{
				db:     db,
				relID:  desc.RelID,
				name:   desc.Name,
				seg:    desc.Seg,
				schema: append(heap.Schema(nil), desc.Schema...),
			}
			da := addr.EntityAddr{Segment: addr.SegRelationCatalog, Part: p.ID().Part, Slot: s}
			db.rels[desc.Name] = rel
			db.relByID[desc.RelID] = rel
			db.segOwner[desc.Seg] = desc.RelID
			db.relDescAddr[desc.RelID] = da
			db.store.EnsureSegment(desc.Seg)
			for _, ps := range desc.Parts {
				db.store.Reserve(addr.PartitionID{Segment: desc.Seg, Part: ps.Part})
				db.mgr.MarkTrackUsed(ps.Track)
			}
			return true
		})
		if scanErr != nil {
			return scanErr
		}
	}
	// Then indexes.
	for _, p := range db.store.Partitions(addr.SegIndexCatalog) {
		var scanErr error
		p.Slots(func(s addr.Slot, data []byte) bool {
			desc, err := catalog.DecodeIndex(data)
			if err != nil {
				scanErr = err
				return false
			}
			rel := db.relByID[desc.RelID]
			if rel == nil {
				scanErr = fmt.Errorf("mmdb: index %q references missing relation %d", desc.Name, desc.RelID)
				return false
			}
			idx, err := newIndex(rel, desc)
			if err != nil {
				scanErr = err
				return false
			}
			da := addr.EntityAddr{Segment: addr.SegIndexCatalog, Part: p.ID().Part, Slot: s}
			rel.addIndex(idx)
			db.segOwner[desc.Seg] = desc.RelID
			db.idxDescAddr[desc.IdxID] = da
			db.store.EnsureSegment(desc.Seg)
			for _, ps := range desc.Parts {
				db.store.Reserve(addr.PartitionID{Segment: desc.Seg, Part: ps.Part})
				db.mgr.MarkTrackUsed(ps.Track)
			}
			return true
		})
		if scanErr != nil {
			return scanErr
		}
	}
	return nil
}

// Metrics captures every instrument of this database instance:
// commit and lock-wait latency, SLB record-write and log-page-flush
// latency, checkpoint duration and image sizes, restart phase timings,
// and the associated event counters. See docs/METRICS.md for the full
// metric list and the paper claims each one validates.
func (db *DB) Metrics() MetricsSnapshot { return db.mgr.MetricsSnapshot() }

// ResetMetrics zeroes every counter, gauge, and histogram in the
// database's metrics registry, so a measurement window can be aligned
// with a benchmark phase or a trace capture.
func (db *DB) ResetMetrics() { db.mgr.Metrics().Registry().Reset() }

// TraceEvents decodes this generation's flight ring, oldest event
// first. Empty when Config.FlightRecorderBytes is zero.
func (db *DB) TraceEvents() []TraceEvent { return db.mgr.TraceEvents() }

// CrashTrace returns the previous generation's flight-recorder
// timeline, recovered from stable memory during Recover: the exact
// event sequence leading up to the crash, ending with the fault-trigger
// event that caused it. Empty for a fresh database or when the crashed
// generation ran without a flight recorder.
func (db *DB) CrashTrace() []TraceEvent { return db.mgr.CrashTrace() }

// ExportChromeTrace writes this generation's flight ring as Chrome
// trace_event JSON, loadable in chrome://tracing or Perfetto: one lane
// per subsystem, with spans built from begin/end event pairs.
func (db *DB) ExportChromeTrace(w io.Writer) error {
	return trace.WriteChrome(w, db.mgr.TraceEvents())
}

// ExportCrashChromeTrace writes the recovered pre-crash flight-recorder
// timeline as Chrome trace_event JSON.
func (db *DB) ExportCrashChromeTrace(w io.Writer) error {
	return trace.WriteChrome(w, db.mgr.CrashTrace())
}

// Manager exposes the recovery component (benchmarks, tools).
func (db *DB) Manager() *core.Manager { return db.mgr }

// RecoveryProgress snapshots the live restart progress — partitions
// recovered vs total, the heat-weighted fraction of pre-crash access
// weight resident again, and the time-to-p99-restored stamp — plus the
// topK hottest pre-crash partitions with their residency state. The ops
// plane serves it as /recovery.
func (db *DB) RecoveryProgress(topK int) core.RecoveryProgress {
	return db.mgr.RecoveryProgress(topK)
}

// WaitIdle blocks until the recovery component is idle: every committed
// transaction sorted into the bins, every requested checkpoint finished
// or abandoned, and the background recovery sweep (after Recover)
// finished. It returns early once the database crashes or closes.
func (db *DB) WaitIdle() { db.mgr.WaitIdle() }
