package core

import (
	"mmdb/internal/addr"
	"mmdb/internal/catalog"
	"mmdb/internal/simdisk"
	"mmdb/internal/wal"
)

// AllocRelID hands out the next relation identifier. Counters live in
// the stable root, so identifiers are never reused across crashes.
func (m *Manager) AllocRelID() uint64 {
	var id uint64
	m.slt.updateRoot(func(r *catalog.Root) {
		id = r.NextRelID
		r.NextRelID++
	})
	return id
}

// AllocIdxID hands out the next index identifier.
func (m *Manager) AllocIdxID() uint64 {
	var id uint64
	m.slt.updateRoot(func(r *catalog.Root) {
		id = r.NextIdxID
		r.NextIdxID++
	})
	return id
}

// AllocSegID hands out the next segment identifier.
func (m *Manager) AllocSegID() addr.SegmentID {
	var id uint32
	m.slt.updateRoot(func(r *catalog.Root) {
		id = r.NextSeg
		r.NextSeg++
	})
	return addr.SegmentID(id)
}

// AddCatalogPart records a newly allocated catalog partition in the
// well-known root (§2.5: the list of catalog partition addresses is
// kept in a well-known location).
func (m *Manager) AddCatalogPart(pid addr.PartitionID) {
	m.slt.updateRoot(func(r *catalog.Root) {
		setRootTrack(r, pid, simdisk.NilTrack)
	})
}

// LocateCatalogPart returns a catalog partition's checkpoint location
// from the root.
func (m *Manager) LocateCatalogPart(pid addr.PartitionID) simdisk.TrackLoc {
	root := m.slt.rootCopy()
	var list []catalog.PartState
	switch pid.Segment {
	case addr.SegRelationCatalog:
		list = root.RelCatParts
	case addr.SegIndexCatalog:
		list = root.IdxCatParts
	}
	for _, ps := range list {
		if ps.Part == pid.Part {
			return ps.Track
		}
	}
	return simdisk.NilTrack
}

// RootCopy returns a snapshot of the stable root.
func (m *Manager) RootCopy() *catalog.Root { return m.slt.rootCopy() }

// BinState describes a partition bin for tests and tooling.
type BinState struct {
	PID         addr.PartitionID
	UpdateCount int
	Pages       []simdisk.LSN
	CurRecords  int
	CkptPending bool
	FenceActive bool
}

// BinStates snapshots the Stable Log Tail's bins.
func (m *Manager) BinStates() []BinState {
	m.slt.st.mu.Lock()
	defer m.slt.st.mu.Unlock()
	out := make([]BinState, 0, len(m.slt.st.bins))
	for _, b := range m.slt.st.bins {
		out = append(out, BinState{
			PID:         b.pid,
			UpdateCount: b.updateCount,
			Pages:       append([]simdisk.LSN(nil), b.pages...),
			CurRecords:  b.curCount,
			CkptPending: b.ckptTrigger != 0,
			FenceActive: b.fenceActive,
		})
	}
	return out
}

// InjectCommitted writes a pre-built record stream through the real
// commit path — one SLB chain, committed atomically — for the logging
// capacity experiments. The records flow through the same sorter and
// page-flush code as regular transactions.
func (m *Manager) InjectCommitted(txnID uint64, records []wal.Record) error {
	c := m.slb.BeginTxn(txnID)
	for i := range records {
		records[i].Txn = txnID
		if err := c.WriteRecord(&records[i]); err != nil {
			c.Abort()
			return err
		}
	}
	return c.Commit()
}

// RootSentinelPID is the partition address under which catalog root
// pages are written to the log disk (§2.5). No recovery path reads those
// pages; readers of the raw log use the address to skip them.
func RootSentinelPID() addr.PartitionID { return rootPID }

// BinResidue is a partition's not-yet-flushed log records in the
// Stable Log Tail, needed to complete a media-failure rebuild.
type BinResidue struct {
	PID     addr.PartitionID
	Records []byte
}

// BinResidues snapshots every bin's current page buffer, each a clean
// concatenation of records.
func (m *Manager) BinResidues() []BinResidue {
	m.slt.st.mu.Lock()
	defer m.slt.st.mu.Unlock()
	var out []BinResidue
	for _, b := range m.slt.st.bins {
		m.checkTailLocked(b)
		if b.cur != nil && b.cur.Len() > 0 {
			out = append(out, BinResidue{PID: b.pid, Records: append([]byte(nil), b.cur.Bytes()...)})
		}
	}
	return out
}

// RequestCheckpoint manually requests a checkpoint of a partition
// (tests, shutdown flushes, media-failure re-imaging, and the paper's
// "checkpointed because of age" path exercised directly), unless one is
// already pending. The bin is created if the partition has never been
// logged.
func (m *Manager) RequestCheckpoint(pid addr.PartitionID) {
	m.slt.st.mu.Lock()
	defer m.slt.st.mu.Unlock()
	if b, err := m.slt.binForLocked(pid); err == nil {
		m.slt.raiseLocked(b, trigUpdateCount)
	}
}
