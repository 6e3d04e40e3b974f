package core

import (
	"errors"
	"fmt"

	"mmdb/internal/addr"
	"mmdb/internal/mm"
	"mmdb/internal/trace"
	"mmdb/internal/wal"
)

// ApplyRecord applies one REDO record to a partition image. It is the
// only place a log record mutates a partition: partition recovery, the
// database-level baseline and the experiments all replay through it.
// Semantics are deliberately lenient ("replay-tolerant"):
//
// Recovery may replay records whose effects are already contained in
// the checkpoint image, because the image supersedes the bin's fenced
// prefix only after the checkpoint *finishes* — a crash between the
// checkpoint transaction's commit (which installs the new image in the
// catalog) and the recovery CPU's fence-drop leaves both the new image
// and the full bin. Replaying the full record sequence, in order, onto
// a state that already includes a prefix of it converges to the correct
// state as long as each operation behaves as slot-targeted assignment:
//
//   - insert  => put (overwrite an occupied slot);
//   - update  => put (create a missing slot);
//   - delete  => no-op on a missing slot;
//   - write-at => no-op when the slot is missing or too short (a later
//     record in the sequence re-creates the bytes that matter).
//
// The same tolerance absorbs duplicated records from a committed chain
// that was only partially sorted at crash time and is re-sorted on
// restart.
func ApplyRecord(p *mm.Partition, r *wal.Record) error {
	switch r.Tag {
	case wal.TagRelInsert, wal.TagIdxInsert:
		if _, err := p.Read(r.Slot); err == nil {
			return p.Update(r.Slot, r.Data)
		}
		return p.InsertAt(r.Slot, r.Data)
	case wal.TagRelUpdate, wal.TagIdxUpdate:
		if _, err := p.Read(r.Slot); err != nil {
			return p.InsertAt(r.Slot, r.Data)
		}
		return p.Update(r.Slot, r.Data)
	case wal.TagRelDelete, wal.TagIdxDelete:
		if err := p.Delete(r.Slot); err != nil && !errors.Is(err, mm.ErrBadSlot) {
			return err
		}
		return nil
	case wal.TagRelWrite, wal.TagIdxWrite:
		cur, err := p.Read(r.Slot)
		if err != nil || int(r.Off)+len(r.Data) > len(cur) {
			return nil // superseded by a later record in the sequence
		}
		return p.WriteAt(r.Slot, int(r.Off), r.Data)
	case wal.TagPartAlloc, wal.TagPartFree:
		// Partition lifecycle is reflected in the catalogs; for the
		// image itself these are no-ops (recovery starts from an
		// empty image when no checkpoint exists).
		return nil
	default:
		return fmt.Errorf("core: replay of unknown tag %v", r.Tag)
	}
}

// replayPrefix applies a concatenated record encoding to the partition
// in one walk — decode a record, apply it — and stops at the first
// record that fails to decode: clean is the length of the prefix that
// replayed and cut the decode error that ended it, nil when all of buf
// did. Records that belong to other partitions are skipped (a safety
// net — bins are per-partition by construction). err is an apply
// failure.
func replayPrefix(p *mm.Partition, buf []byte) (applied, clean int, cut, err error) {
	w := wal.Walk(buf)
	for w.Next() {
		r := w.Record()
		if r.PID != p.ID() {
			continue
		}
		if err := ApplyRecord(p, r); err != nil {
			return applied, w.Clean(), nil, fmt.Errorf("core: replaying %v record at %v slot %d: %w",
				r.Tag, r.PID, r.Slot, err)
		}
		applied++
	}
	return applied, w.Clean(), w.Err(), nil
}

// quarantineSuffix accounts for the part of a record stream a walk
// could not decode: buf[clean:total] is counted and traced, never
// sorted or applied — boundaries past a damaged record cannot be
// resynchronised in a varint stream. ev names the stream (transaction,
// partition, LSN).
//
// binTail marks the one stream where a short last record is expected,
// a bin's current page buffer: it is either the append the crash tore
// — harmless, its chain is still on the committed list (chains leave
// the SLB only after a full sort) and re-sorts — or rot that truncated
// an acknowledged record. The two are byte-identical from here, so the
// cut is surfaced under its own counter. A CRC mismatch is rot anywhere.
func (m *Manager) quarantineSuffix(ev trace.Event, clean, total int, cut error, binTail bool) {
	ev.Kind = trace.KindRecordQuarantine
	ev.Arg, ev.Arg2 = uint64(clean), uint64(total-clean)
	if binTail && !errors.Is(cut, wal.ErrChecksum) {
		m.metrics.TornTailCuts.Inc()
		ev.Str = "torn tail cut"
	} else {
		m.metrics.CorruptDetected.Inc()
		m.metrics.QuarantinedRecords.Inc()
		ev.Str = cut.Error()
	}
	m.tracer.Emit(ev)
}

// checkTailLocked makes sure, once per incarnation, that the bin's
// current page buffer ends on a record boundary before anything is
// appended to it, flushed from it or copied out of it; the SLT mutex
// must be held. Restart does not do this for every bin up front — time
// to first transaction must not grow with partitions × tail bytes
// (§2.5) — so each path that touches the buffer calls this first.
func (m *Manager) checkTailLocked(b *bin) {
	if b.checked == m.slt.st.boot {
		return
	}
	var w wal.Walker
	if b.cur != nil {
		w = wal.Walk(b.cur.Bytes())
		for w.Next() {
		}
	}
	m.markTailLocked(b, w.Clean(), w.Err())
}

// markTailLocked records what a walk over the whole of the bin's
// buffer found: the bin is checked, and cut back to the clean prefix if
// the walk was cut short.
func (m *Manager) markTailLocked(b *bin, clean int, cut error) {
	b.checked = m.slt.st.boot
	if cut != nil {
		m.quarantineSuffix(pidEvent(trace.Event{}, b.pid), clean, b.cur.Len(), cut, true)
		b.cur.Truncate(clean)
	}
}

// settleTail is checkTailLocked for the recovery transaction, whose
// replay of the buffer's snapshot was the walk. If another path touched
// the bin since the snapshot, that path has made the cut and counted it.
func (m *Manager) settleTail(pid addr.PartitionID, clean int, cut error) {
	st := m.slt.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if b := st.bins[pid]; b != nil && b.checked != st.boot {
		m.markTailLocked(b, clean, cut)
	}
}
