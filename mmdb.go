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

	mu      sync.RWMutex
	rels    map[string]*Relation
	relByID map[uint64]*Relation
	objects map[addr.SegmentID]object // every relation's and index's segment
	closed  bool
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
		cfg:     cfg,
		mgr:     mgr,
		store:   store,
		locks:   locks,
		rels:    make(map[string]*Relation),
		relByID: make(map[uint64]*Relation),
		objects: make(map[addr.SegmentID]object),
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

// object is one catalog object, a relation or one of its indexes: the
// owner of a segment, with the address of the catalog descriptor that
// lists the segment's partitions.
type object struct {
	rel   *Relation
	desc  addr.EntityAddr
	index *Index // nil for the relation itself
}

// owner returns the catalog object that owns seg.
func (db *DB) owner(seg addr.SegmentID) (object, error) {
	db.mu.RLock()
	o, ok := db.objects[seg]
	db.mu.RUnlock()
	if !ok {
		return object{}, fmt.Errorf("%w: no owner for segment %d", ErrNotFound, seg)
	}
	return o, nil
}

// ownerRel maps a partition to the relation whose read lock makes it
// transaction-consistent.
func (db *DB) ownerRel(pid addr.PartitionID) (uint64, bool) {
	if pid.Segment == addr.SegRelationCatalog || pid.Segment == addr.SegIndexCatalog {
		return uint64(pid.Segment), true
	}
	o, err := db.owner(pid.Segment)
	if err != nil {
		return 0, false
	}
	return o.rel.relID, true
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

// updateOwnerDesc applies fn to the partition list of the catalog
// descriptor owning pid's segment, with proper catalog locking, inside
// transaction t, and logs the descriptor whole: the new list spliced in
// behind the untouched head, the bytes a re-encode would give.
func (db *DB) updateOwnerDesc(t *txn.Txn, pid addr.PartitionID, fn func([]catalog.PartState) []catalog.PartState) error {
	o, err := db.owner(pid.Segment)
	if err != nil {
		return err
	}
	cat := catalog.RelIDRelationCatalog
	if o.index != nil {
		cat = catalog.RelIDIndexCatalog
	}
	if err := t.LockRelation(cat, lock.IX); err != nil {
		return err
	}
	if err := t.LockEntity(o.desc, lock.X); err != nil {
		return err
	}
	raw, err := t.ReadEntity(o.desc)
	if err != nil {
		return err
	}
	parts, err := catalog.Parts(raw, o.index != nil)
	if err != nil {
		return err
	}
	if raw, err = catalog.WithParts(raw, o.index != nil, fn(parts)); err != nil {
		return err
	}
	return t.UpdateEntity(o.desc, false, raw)
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
	o, err := db.owner(pid.Segment)
	if err != nil {
		return simdisk.NilTrack, fmt.Errorf("partition %v: %w", pid, err)
	}
	raw, held, err := db.store.Lend(o.desc)
	if err != nil {
		return simdisk.NilTrack, err
	}
	track, err := catalog.TrackAt(raw, o.index != nil, pid.Part)
	held.Unlock()
	if errors.Is(err, catalog.ErrNoPartition) {
		return simdisk.NilTrack, fmt.Errorf("%w: partition %v not in catalog", ErrNotFound, pid)
	}
	return track, err
}

// partsOfSegment reads the authoritative partition list for a segment
// from the catalog bytes.
func (db *DB) partsOfSegment(seg addr.SegmentID) ([]catalog.PartState, error) {
	o, err := db.owner(seg)
	if err != nil {
		return nil, err
	}
	raw, held, err := db.store.Lend(o.desc)
	if err != nil {
		return nil, err
	}
	defer held.Unlock()
	return catalog.Parts(raw, o.index != nil)
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
		for _, seg := range rel.segments() {
			parts, err := db.partsOfSegment(seg)
			if err != nil {
				return nil, err
			}
			for _, ps := range parts {
				out = append(out, addr.PartitionID{Segment: seg, Part: ps.Part})
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
// restored catalog partitions: every relation before any index.
func (db *DB) loadCatalogs() error {
	for _, cat := range []addr.SegmentID{addr.SegRelationCatalog, addr.SegIndexCatalog} {
		for _, p := range db.store.Partitions(cat) {
			var scanErr error
			p.Slots(func(s addr.Slot, data []byte) bool {
				scanErr = db.loadDesc(addr.EntityAddr{Segment: cat, Part: p.ID().Part, Slot: s}, data)
				return scanErr == nil
			})
			if scanErr != nil {
				return scanErr
			}
		}
	}
	return nil
}

// loadDesc registers the catalog object whose descriptor raw lies at da,
// and reserves its partitions and their checkpoint tracks.
func (db *DB) loadDesc(da addr.EntityAddr, raw []byte) error {
	o := object{desc: da}
	var seg addr.SegmentID
	var parts []catalog.PartState
	if da.Segment == addr.SegRelationCatalog {
		desc, err := catalog.DecodeRelation(raw)
		if err != nil {
			return err
		}
		o.rel = &Relation{db: db, relID: desc.RelID, name: desc.Name, seg: desc.Seg,
			schema: append(heap.Schema(nil), desc.Schema...)}
		db.rels[desc.Name] = o.rel
		db.relByID[desc.RelID] = o.rel
		seg, parts = desc.Seg, desc.Parts
	} else {
		desc, err := catalog.DecodeIndex(raw)
		if err != nil {
			return err
		}
		if o.rel = db.relByID[desc.RelID]; o.rel == nil {
			return fmt.Errorf("mmdb: index %q references missing relation %d", desc.Name, desc.RelID)
		}
		if o.index, err = newIndex(o.rel, desc); err != nil {
			return err
		}
		o.rel.addIndex(o.index)
		seg, parts = desc.Seg, desc.Parts
	}
	db.objects[seg] = o
	db.store.EnsureSegment(seg)
	for _, ps := range parts {
		db.store.Reserve(addr.PartitionID{Segment: seg, Part: ps.Part})
		db.mgr.MarkTrackUsed(ps.Track)
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
