package core

import (
	"mmdb/internal/addr"
	"mmdb/internal/wal"
)

// Change accumulation (§1.2): the stable log buffer lets the recovery
// CPU compress the log before it reaches the disk. A bin page is folded
// as it is flushed: a record that a later record of the same page
// supersedes is not written. The bin's buffer in stable memory keeps
// every record until the page write succeeds, so the write stays the
// one atomic step and a crash before it re-folds the same bytes.
//
// The rule holds from any image a replay can start in (ApplyRecord's
// replay-tolerant semantics). A write or whole-image update of a slot is
// dropped when a later record of the page on that slot, with no insert
// or delete of the slot between them, is either
//
//   - a whole-image update, which replaces the slot whatever it held, or
//   - a write with the same tag, offset and length: nothing between the
//     two changes the slot's length, so the later write applies exactly
//     when the earlier one would have, over the same bytes.
//
// Inserts, deletes and partition records are never dropped. A dropped
// update must also never leave the slot larger during replay than the
// unfolded page would while something else is placed in the partition,
// or an insert between the two could find the partition full where the
// original did not. So an update goes only when an earlier kept record
// of the page has set the slot to a size no larger than the update's,
// or when no insert or update of any slot lies between it and the next
// update of its slot. Survivors keep their order and bytes, and an
// undecodable suffix is kept byte for byte, so replay stops at the same
// record.

// folder is the sorter's reusable scratch for folding bin pages. It is
// volatile and, like the bins, guarded by the SLT mutex.
type folder struct {
	recs   []foldRec
	slots  map[slotKey]slotFold
	writes map[writeKey]uint32 // the slot epoch + 1 a later write was seen in
	out    []byte
}

type slotKey struct {
	pid  addr.PartitionID
	slot addr.Slot
}

// writeKey names a record's slot, tag, offset and payload length: for a
// write, the bytes it covers.
type writeKey struct {
	slotKey
	tag wal.Tag
	off uint16
	n   int
}

// foldRec is one record of the page's clean prefix.
type foldRec struct {
	start, end int
	key        writeKey
	drop       bool
	// quiet: an update with no insert or update of any slot between it
	// and the next update of its slot.
	quiet bool
}

// slotFold is one slot's state in the two passes. Backward: epoch counts
// the inserts and deletes seen, update that a whole-image update comes
// later in the current epoch, and placed how many inserts and updates
// follow that update. Forward: known and size give the slot's size
// after the kept records so far (0 after a delete).
type slotFold struct {
	epoch  uint32
	update bool
	placed int
	known  bool
	size   int
}

// fold returns page without the records that later records of the same
// page supersede, with the number of records and bytes removed. When
// nothing folds it returns page itself; otherwise the result lives in
// f's buffer until the next call.
func (f *folder) fold(page []byte) (out []byte, records, bytes int) {
	f.recs = f.recs[:0]
	w := wal.Walk(page)
	for start := 0; w.Next(); start = w.Clean() {
		r := w.Record()
		f.recs = append(f.recs, foldRec{start: start, end: w.Clean(),
			key: writeKey{slotKey{r.PID, r.Slot}, r.Tag, r.Off, len(r.Data)}})
	}
	if f.slots == nil {
		f.slots = make(map[slotKey]slotFold)
		f.writes = make(map[writeKey]uint32)
	}
	clear(f.slots)
	clear(f.writes)

	superseded := 0
	placed := 0 // inserts and updates after record i
	for i := len(f.recs) - 1; i >= 0; i-- {
		r := &f.recs[i]
		s := f.slots[r.key.slotKey]
		switch r.key.tag {
		case wal.TagRelInsert, wal.TagIdxInsert:
			placed++
			fallthrough
		case wal.TagRelDelete, wal.TagIdxDelete:
			s.epoch++
			s.update = false
			f.slots[r.key.slotKey] = s
		case wal.TagRelUpdate, wal.TagIdxUpdate:
			r.drop = s.update
			r.quiet = s.update && placed == s.placed+1
			s.update = true
			s.placed = placed
			placed++
			f.slots[r.key.slotKey] = s
		case wal.TagRelWrite, wal.TagIdxWrite:
			if s.update || f.writes[r.key] == s.epoch+1 {
				r.drop = true
			} else {
				f.writes[r.key] = s.epoch + 1
			}
		}
		if r.drop {
			superseded++
		}
	}
	if superseded == 0 {
		return page, 0, 0
	}

	f.out = f.out[:0]
	from := 0 // start of the run of kept bytes not yet copied
	for i := range f.recs {
		r := &f.recs[i]
		switch r.key.tag {
		case wal.TagRelInsert, wal.TagIdxInsert, wal.TagRelUpdate, wal.TagIdxUpdate:
			s := f.slots[r.key.slotKey]
			if r.drop && (r.quiet || s.known && s.size <= r.key.n) {
				break
			}
			r.drop = false
			s.known, s.size = true, r.key.n
			f.slots[r.key.slotKey] = s
		case wal.TagRelDelete, wal.TagIdxDelete:
			s := f.slots[r.key.slotKey]
			s.known, s.size = true, 0
			f.slots[r.key.slotKey] = s
		}
		if r.drop {
			f.out = append(f.out, page[from:r.start]...)
			from = r.end
			records++
			bytes += r.end - r.start
		}
	}
	if records == 0 {
		return page, 0, 0
	}
	return append(f.out, page[from:]...), records, bytes
}
