package core

import (
	"errors"
	"fmt"

	"mmdb/internal/mm"
	"mmdb/internal/simdisk"
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

// applyRecords applies a concatenated record encoding to the partition,
// in order, skipping records that belong to other partitions (a safety
// net — bins are per-partition by construction).
func applyRecords(p *mm.Partition, buf []byte) (int, error) {
	recs, err := wal.DecodeAll(buf)
	if err != nil {
		return 0, err
	}
	n := 0
	for i := range recs {
		if recs[i].PID != p.ID() {
			continue
		}
		if err := ApplyRecord(p, &recs[i]); err != nil {
			return n, fmt.Errorf("core: replaying %v record at %v slot %d: %w",
				recs[i].Tag, recs[i].PID, recs[i].Slot, err)
		}
		n++
	}
	return n, nil
}

// applyClean cuts a record stream (a log page's records, or a bin's
// current buffer when lsn is NilLSN) back to its longest cleanly
// decodable prefix and applies that. A record whose CRC no longer
// matches is quarantined — counted and traced, never applied — and the
// boundaries past it cannot be resynchronised in a varint stream, so
// the corrupt suffix is surrendered with it.
func (m *Manager) applyClean(p *mm.Partition, lsn simdisk.LSN, buf []byte) (int, error) {
	if valid := wal.ValidPrefix(buf); valid < len(buf) {
		_, _, derr := wal.Decode(buf[valid:])
		m.metrics.CorruptDetected.Inc()
		m.metrics.QuarantinedRecords.Inc()
		m.tracer.Emit(pidEvent(trace.Event{
			Kind: trace.KindRecordQuarantine, LSN: uint64(lsn),
			Arg: uint64(valid), Arg2: uint64(len(buf) - valid),
			Str: derr.Error(),
		}, p.ID()))
		buf = buf[:valid]
	}
	return applyRecords(p, buf)
}
