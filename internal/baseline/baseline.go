// Package baseline implements the comparison point of §3.4.1: Engine,
// database-level recovery, the "one very large partition" special case
// — checkpoints stream the entire memory-resident database to disk (à
// la Hagmann [Hagmann 86]) and restart reloads the entire database and
// processes the whole log before any transaction can run.
//
// It runs on the same simulated disks and charges the same busy-time
// counters, so its numbers are directly comparable with the
// partition-level design in package core.
package baseline

import (
	"fmt"

	"mmdb/internal/addr"
	"mmdb/internal/core"
	"mmdb/internal/metrics"
	"mmdb/internal/mm"
	"mmdb/internal/simdisk"
	"mmdb/internal/wal"
)

// Engine is a database-level-recovery storage engine over the same
// partitioned memory organisation. It logs committed operations to a
// single global log stream and checkpoints the whole database at once.
type Engine struct {
	store    *mm.Store
	logDisk  *simdisk.DuplexLog
	ckptDisk *simdisk.CheckpointDisk
	pageSize int

	// LogDiskBusy and CkptDiskBusy are the engine's simulated disk busy
	// time in µs: what core's sim/log_disk_busy_us and
	// sim/ckpt_disk_busy_us are for the partition-level design.
	LogDiskBusy, CkptDiskBusy metrics.Counter

	cur      []byte        // current global log page
	logPages []simdisk.LSN // pages since the last full checkpoint

	// Last full-database checkpoint: image tracks in partition order.
	ckptParts  []addr.PartitionID
	ckptTracks []simdisk.TrackLoc
	nextTrack  simdisk.TrackLoc
}

// New creates a database-level engine over fresh simulated hardware
// components. partSize is the partition size used by its store.
func New(partSize, logPageSize, ckptTracks int, disk simdisk.Params) *Engine {
	e := &Engine{store: mm.NewStore(partSize), pageSize: logPageSize}
	e.logDisk = simdisk.NewDuplexLog(disk, &e.LogDiskBusy)
	e.ckptDisk = simdisk.NewCheckpointDisk(ckptTracks, disk, &e.CkptDiskBusy)
	return e
}

// Store returns the engine's memory manager.
func (e *Engine) Store() *mm.Store { return e.store }

// Commit durably logs one committed transaction's records, appended to
// the single global log stream in commit order.
func (e *Engine) Commit(records []wal.Record) error {
	for i := range records {
		enc := records[i].Encode(nil)
		if len(e.cur)+len(enc) > e.pageSize && len(e.cur) > 0 {
			if err := e.flushLogPage(); err != nil {
				return err
			}
		}
		e.cur = append(e.cur, enc...)
	}
	return nil
}

func (e *Engine) flushLogPage() error {
	if len(e.cur) == 0 {
		return nil
	}
	lsn, err := e.logDisk.Append(e.cur)
	if err != nil {
		return err
	}
	e.logPages = append(e.logPages, lsn)
	e.cur = nil
	return nil
}

// LogPages returns the number of log pages accumulated since the last
// checkpoint (plus the partial current page).
func (e *Engine) LogPages() int {
	n := len(e.logPages)
	if len(e.cur) > 0 {
		n++
	}
	return n
}

// Checkpoint streams the entire memory-resident database to the
// checkpoint disk — Hagmann's scheme and the degenerate case of
// partition-level checkpointing with one huge partition (§3.4.1). The
// caller must present a quiescent (transaction-consistent) database.
func (e *Engine) Checkpoint() error {
	if err := e.flushLogPage(); err != nil {
		return err
	}
	pids := e.store.ResidentIDs()
	parts := make([]addr.PartitionID, 0, len(pids))
	tracks := make([]simdisk.TrackLoc, 0, len(pids))
	for _, pid := range pids {
		p, err := e.store.Partition(pid)
		if err != nil {
			return err
		}
		t := e.nextTrack
		e.nextTrack = (e.nextTrack + 1) % simdisk.TrackLoc(e.ckptDisk.Tracks())
		if err := e.ckptDisk.WriteTrack(t, p.Snapshot()); err != nil {
			return err
		}
		parts = append(parts, pid)
		tracks = append(tracks, t)
	}
	e.ckptParts = parts
	e.ckptTracks = tracks
	// The whole log is superseded by the full image.
	if len(e.logPages) > 0 {
		e.logDisk.Drop(e.logPages[len(e.logPages)-1])
	}
	e.logPages = nil
	return nil
}

// Recover performs database-level restart: reload every partition of
// the checkpoint image and process the entire log, after which — and
// only after which — transaction processing may resume. It returns the
// recovered store.
func (e *Engine) Recover(partSize int) (*mm.Store, error) {
	store := mm.NewStore(partSize)
	byPID := make(map[addr.PartitionID]*mm.Partition, len(e.ckptParts))
	for i, pid := range e.ckptParts {
		img, err := e.ckptDisk.ReadTrack(e.ckptTracks[i])
		if err != nil {
			return nil, fmt.Errorf("baseline: image of %v: %w", pid, err)
		}
		p, err := mm.AdoptImage(pid, img)
		if err != nil {
			return nil, fmt.Errorf("baseline: image of %v: %w", pid, err)
		}
		store.EnsureSegment(pid.Segment)
		store.Install(p)
		byPID[pid] = p
	}
	apply := func(buf []byte) error {
		w := wal.Walk(buf)
		for w.Next() {
			r := w.Record()
			p := byPID[r.PID]
			if p == nil {
				store.EnsureSegment(r.PID.Segment)
				np, err := store.AllocPartitionAt(r.PID)
				if err != nil {
					return err
				}
				p = np
				byPID[r.PID] = p
			}
			if err := core.ApplyRecord(p, r); err != nil {
				return err
			}
		}
		return w.Err()
	}
	for _, lsn := range e.logPages {
		page, err := e.logDisk.Read(lsn)
		if err != nil {
			return nil, err
		}
		if err := apply(page); err != nil {
			return nil, err
		}
	}
	if len(e.cur) > 0 {
		// The partial page was in (stable) memory at the crash.
		if err := apply(e.cur); err != nil {
			return nil, err
		}
	}
	e.store = store
	return store, nil
}
