package mmdb

import (
	"fmt"

	"mmdb/internal/addr"
	"mmdb/internal/catalog"
	"mmdb/internal/txn"
)

// CheckConsistency performs an offline-style integrity audit of the
// whole database (an "fsck"): catalog descriptors decode and agree with
// the volatile maps; every tuple decodes under its relation's schema;
// every index satisfies its structural invariants; and every index is
// exactly consistent with its relation's tuples (no missing entries, no
// phantoms). It must be called while no transactions are in flight.
//
// The property-based crash tests call this after every recovery, so a
// recovery bug that corrupts any of these invariants fails loudly.
func (db *DB) CheckConsistency() error {
	db.mu.RLock()
	rels := make([]*Relation, 0, len(db.relByID))
	for _, r := range db.relByID {
		rels = append(rels, r)
	}
	db.mu.RUnlock()

	for _, rel := range rels {
		if err := db.checkRelation(rel); err != nil {
			return fmt.Errorf("mmdb: consistency: relation %q: %w", rel.name, err)
		}
	}
	return nil
}

func (db *DB) checkRelation(rel *Relation) error {
	// Catalog descriptor must decode and match the handle.
	o, err := db.owner(rel.seg)
	var raw []byte
	if err == nil {
		raw, err = txn.ReadPager{Store: db.store}.Read(o.desc)
	}
	if err != nil {
		return fmt.Errorf("descriptor unreadable: %w", err)
	}
	desc, err := catalog.DecodeRelation(raw)
	if err != nil {
		return fmt.Errorf("descriptor corrupt: %w", err)
	}
	if desc.RelID != rel.relID || desc.Seg != rel.seg || desc.Name != rel.name {
		return fmt.Errorf("descriptor mismatch: %+v vs handle(%d,%d,%q)", desc, rel.relID, rel.seg, rel.name)
	}

	// Every tuple decodes; collect the live set.
	live := map[uint64]bool{}
	for _, ps := range desc.Parts {
		pid := addr.PartitionID{Segment: rel.seg, Part: ps.Part}
		p, err := db.store.Partition(pid)
		if err != nil {
			return fmt.Errorf("partition %v: %w", pid, err)
		}
		var scanErr error
		p.Latch()
		p.Slots(func(s addr.Slot, data []byte) bool {
			if _, err := rel.schema.Decode(data); err != nil {
				scanErr = fmt.Errorf("tuple %v.%d corrupt: %w", pid, s, err)
				return false
			}
			live[addr.EntityAddr{Segment: rel.seg, Part: ps.Part, Slot: s}.Pack()] = true
			return true
		})
		p.Unlatch()
		if scanErr != nil {
			return scanErr
		}
	}

	// Indexes: structural invariants plus exact agreement with live.
	for _, idx := range rel.Indexes() {
		if err := db.checkIndex(idx, live); err != nil {
			return fmt.Errorf("index %q: %w", idx.name, err)
		}
	}
	return nil
}

func (db *DB) checkIndex(idx *Index, live map[uint64]bool) error {
	idx.latch.RLock()
	defer idx.latch.RUnlock()
	s, err := idx.read()
	if err != nil {
		return err
	}
	if err := s.Check(); err != nil {
		return err
	}
	seen := map[uint64]bool{}
	var walkErr error
	if err := s.walk(func(e uint64) bool {
		switch {
		case !live[e]:
			walkErr = fmt.Errorf("phantom entry %v", addr.Unpack(e))
		case seen[e]:
			walkErr = fmt.Errorf("duplicate entry %v", addr.Unpack(e))
		}
		seen[e] = true
		return walkErr == nil
	}); err != nil {
		return err
	}
	if walkErr != nil {
		return walkErr
	}
	if len(seen) != len(live) {
		return fmt.Errorf("index has %d entries, relation has %d tuples", len(seen), len(live))
	}
	return nil
}
