package mmdb

import (
	"fmt"

	"mmdb/internal/addr"
	"mmdb/internal/catalog"
	"mmdb/internal/lock"
)

// Preload recovers every partition of the relation and its indexes
// before returning: the paper's §2.5 method 1, where a transaction
// predeclares the relations it needs (from query compilation) and runs
// once they are restored in their entirety. On a fully resident
// database it is a no-op.
func (db *DB) Preload(rel *Relation) error {
	segs := []addr.SegmentID{rel.seg}
	for _, idx := range rel.Indexes() {
		segs = append(segs, idx.seg)
	}
	for _, seg := range segs {
		parts, err := db.partsOfSegment(seg)
		if err != nil {
			return err
		}
		for _, ps := range parts {
			if _, err := db.store.Partition(addr.PartitionID{Segment: seg, Part: ps.Part}); err != nil {
				return err
			}
		}
	}
	return nil
}

// DropIndex removes an index: its catalog entry, its segment, its bins,
// and its checkpoint images.
func (db *DB) DropIndex(rel *Relation, name string) error {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	idx := rel.Index(name)
	if idx == nil {
		return fmt.Errorf("%w: index %q", ErrNotFound, name)
	}
	parts, err := db.partsOfSegment(idx.seg)
	if err != nil {
		return err
	}
	db.mu.RLock()
	da := db.idxDescAddr[idx.idxID]
	db.mu.RUnlock()

	t := db.mgr.Txns.Begin()
	// Writers of the index are excluded by the relation X lock.
	if err := t.LockRelation(rel.relID, lock.X); err != nil {
		_ = t.Abort()
		return err
	}
	if err := t.LockRelation(catalog.RelIDIndexCatalog, lock.IX); err != nil {
		_ = t.Abort()
		return err
	}
	if err := t.LockEntity(da, lock.X); err != nil {
		_ = t.Abort()
		return err
	}
	for _, ps := range parts {
		if err := t.FreePartition(addr.PartitionID{Segment: idx.seg, Part: ps.Part}); err != nil {
			_ = t.Abort()
			return err
		}
	}
	if err := t.DeleteEntity(da); err != nil {
		_ = t.Abort()
		return err
	}
	if err := t.Commit(); err != nil {
		_ = t.Abort()
		return err
	}
	db.reapSegment(idx.seg, parts)
	rel.removeIndex(idx)
	db.mu.Lock()
	delete(db.idxDescAddr, idx.idxID)
	delete(db.segOwner, idx.seg)
	db.mu.Unlock()
	return nil
}

// DropRelation removes a relation, its indexes, and all their storage.
func (db *DB) DropRelation(name string) error {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	db.mu.RLock()
	rel := db.rels[name]
	db.mu.RUnlock()
	if rel == nil {
		return fmt.Errorf("%w: relation %q", ErrNotFound, name)
	}
	relParts, err := db.partsOfSegment(rel.seg)
	if err != nil {
		return err
	}
	type idxDrop struct {
		idx   *Index
		parts []catalog.PartState
	}
	var idxDrops []idxDrop
	for _, idx := range rel.Indexes() {
		parts, err := db.partsOfSegment(idx.seg)
		if err != nil {
			return err
		}
		idxDrops = append(idxDrops, idxDrop{idx: idx, parts: parts})
	}
	db.mu.RLock()
	relDA := db.relDescAddr[rel.relID]
	db.mu.RUnlock()

	t := db.mgr.Txns.Begin()
	if err := t.LockRelation(rel.relID, lock.X); err != nil {
		_ = t.Abort()
		return err
	}
	if err := t.LockRelation(catalog.RelIDRelationCatalog, lock.IX); err != nil {
		_ = t.Abort()
		return err
	}
	if err := t.LockRelation(catalog.RelIDIndexCatalog, lock.IX); err != nil {
		_ = t.Abort()
		return err
	}
	for _, ps := range relParts {
		if err := t.FreePartition(addr.PartitionID{Segment: rel.seg, Part: ps.Part}); err != nil {
			_ = t.Abort()
			return err
		}
	}
	for _, d := range idxDrops {
		for _, ps := range d.parts {
			if err := t.FreePartition(addr.PartitionID{Segment: d.idx.seg, Part: ps.Part}); err != nil {
				_ = t.Abort()
				return err
			}
		}
		db.mu.RLock()
		da := db.idxDescAddr[d.idx.idxID]
		db.mu.RUnlock()
		if err := t.DeleteEntity(da); err != nil {
			_ = t.Abort()
			return err
		}
	}
	if err := t.DeleteEntity(relDA); err != nil {
		_ = t.Abort()
		return err
	}
	if err := t.Commit(); err != nil {
		_ = t.Abort()
		return err
	}

	db.reapSegment(rel.seg, relParts)
	for _, d := range idxDrops {
		db.reapSegment(d.idx.seg, d.parts)
	}
	db.mu.Lock()
	delete(db.rels, name)
	delete(db.relByID, rel.relID)
	delete(db.relDescAddr, rel.relID)
	delete(db.segOwner, rel.seg)
	for _, d := range idxDrops {
		delete(db.idxDescAddr, d.idx.idxID)
		delete(db.segOwner, d.idx.seg)
	}
	db.mu.Unlock()
	return nil
}

// reapSegment performs the post-commit physical cleanup of a dropped
// segment: evict the memory copy, drop the partition bins, and free the
// checkpoint images.
func (db *DB) reapSegment(seg addr.SegmentID, parts []catalog.PartState) {
	for _, ps := range parts {
		pid := addr.PartitionID{Segment: seg, Part: ps.Part}
		db.mgr.PartitionFreed(pid)
		db.mgr.FreeImage(ps.Track)
	}
	db.store.DropSegment(seg)
}

// RecoverFromMediaFailure recovers the database after the loss of the
// checkpoint disk set (§2.6). A replaced, blank disk set is just "every
// image is lost", which restart already repairs one partition at a time
// from the archive, the surviving (duplexed) log disks and the Stable
// Log Tail: so this is Recover, then every partition demanded and
// re-imaged onto the new disks.
//
// The returned database is fully memory-resident. Durability against a
// subsequent crash is re-established once the re-imaging checkpoints
// complete; WaitIdle is called before returning to guarantee that. On
// error the instance is returned too, as by Recover: good only for
// Crash() and Metrics().
func RecoverFromMediaFailure(hw *Hardware, cfg Config) (*DB, error) {
	hw.Ckpt.Repair()
	db, err := Recover(hw, cfg)
	if err != nil {
		return db, err
	}
	pids, err := db.allPartitions()
	if err != nil {
		return db, err
	}
	for _, pid := range pids {
		if _, err := db.store.Partition(pid); err != nil {
			return db, err
		}
		db.mgr.RequestCheckpoint(pid)
	}
	db.mgr.WaitIdle()
	return db, nil
}
