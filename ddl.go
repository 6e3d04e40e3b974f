package mmdb

import (
	"fmt"

	"mmdb/internal/addr"
	"mmdb/internal/catalog"
	"mmdb/internal/lock"
	"mmdb/internal/txn"
)

// Preload recovers every partition of the relation and its indexes
// before returning: the paper's §2.5 method 1, where a transaction
// predeclares the relations it needs (from query compilation) and runs
// once they are restored in their entirety. On a fully resident
// database it is a no-op.
func (db *DB) Preload(rel *Relation) error {
	for _, seg := range rel.segments() {
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

// inTxn runs fn in a transaction of its own and commits it, or aborts
// it when fn or the commit fails.
func (db *DB) inTxn(fn func(t *txn.Txn) error) error {
	t := db.mgr.Txns.Begin()
	err := fn(t)
	if err == nil {
		err = t.Commit()
	}
	if err != nil {
		_ = t.Abort()
	}
	return err
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
	return db.drop(rel, []addr.SegmentID{idx.seg})
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
	return db.drop(rel, rel.segments())
}

// drop removes the catalog objects owning segs, all of them rel's: the
// relation with its indexes when segs starts with rel's own segment,
// else indexes alone. One transaction, under rel's X lock (it excludes
// the objects' writers and checkpoints), X-locks each descriptor as every
// descriptor write does, frees every partition and deletes every
// descriptor, the relation's last; after it commits each segment's memory
// copy, bins and checkpoint images are reclaimed.
func (db *DB) drop(rel *Relation, segs []addr.SegmentID) error {
	objs := make([]object, len(segs))
	parts := make([][]catalog.PartState, len(segs))
	for i, seg := range segs {
		var err error
		if objs[i], err = db.owner(seg); err == nil {
			parts[i], err = db.partsOfSegment(seg)
		}
		if err != nil {
			return err
		}
	}
	dropRel := segs[0] == rel.seg
	err := db.inTxn(func(t *txn.Txn) error {
		if err := t.LockRelation(rel.relID, lock.X); err != nil {
			return err
		}
		if dropRel {
			if err := t.LockRelation(catalog.RelIDRelationCatalog, lock.IX); err != nil {
				return err
			}
		}
		if err := t.LockRelation(catalog.RelIDIndexCatalog, lock.IX); err != nil {
			return err
		}
		for i, o := range objs {
			if err := t.LockEntity(o.desc, lock.X); err != nil {
				return err
			}
			for _, ps := range parts[i] {
				if err := t.FreePartition(addr.PartitionID{Segment: segs[i], Part: ps.Part}); err != nil {
					return err
				}
			}
			if o.index != nil {
				if err := t.DeleteEntity(o.desc); err != nil {
					return err
				}
			}
		}
		if dropRel {
			return t.DeleteEntity(objs[0].desc)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, seg := range segs {
		for _, ps := range parts[i] {
			db.mgr.PartitionFreed(addr.PartitionID{Segment: seg, Part: ps.Part})
			db.mgr.FreeImage(ps.Track)
		}
		db.store.DropSegment(seg)
		// The store holds none of the segment's heat counts now.
		for _, ps := range parts[i] {
			db.mgr.Heat().Drop(addr.PartitionID{Segment: seg, Part: ps.Part})
		}
	}
	// Persist the ranking without the dropped partitions, or the next
	// restart seeds them back from the snapshot.
	db.mgr.Heat().Persist()
	if !dropRel {
		rel.removeIndex(objs[0].index)
	}
	db.mu.Lock()
	for _, seg := range segs {
		delete(db.objects, seg)
	}
	if dropRel {
		delete(db.rels, rel.name)
		delete(db.relByID, rel.relID)
	}
	db.mu.Unlock()
	return nil
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
