package core

import "mmdb/internal/wal"

// Change accumulation (§1.2): "a stable log buffer provides the
// additional advantage of allowing the recovery mechanism to
// post-process the committed log data, performing log compression or
// change accumulation." The sorter applies it per committed
// transaction chain: successive records targeting the same entity are
// coalesced into the record that produces the same final state, so
// fewer (and smaller) records reach the Stable Log Tail and the log
// disk.
//
// The rules rely on the same slot-level-assignment semantics as lenient
// replay:
//
//   - full-image record (insert/update) after a full-image record for
//     the same slot: keep one record with the later image (preserving
//     insert-ness so a fresh slot is still created at replay);
//   - delete after insert: the slot's net effect is nothing — both drop;
//   - delete after update: the delete alone suffices;
//   - in-place write after a full image: fold the bytes into the image;
//   - in-place write after an in-place write: kept separately (merging
//     disjoint ranges is possible but rarely worth the complexity).
//
// Partition lifecycle records pass through untouched.

// logRec is a record as the sorter read it from the SLB, with its
// encoding there; enc is nil for a record accumulation rewrote.
type logRec struct {
	wal.Record
	enc []byte
}

type accKey struct {
	pid  uint64 // packed partition id
	slot uint16
}

func fullImage(t wal.Tag) bool {
	switch t {
	case wal.TagRelInsert, wal.TagIdxInsert, wal.TagRelUpdate, wal.TagIdxUpdate:
		return true
	}
	return false
}

func isInsert(t wal.Tag) bool { return t == wal.TagRelInsert || t == wal.TagIdxInsert }

func isDelete(t wal.Tag) bool { return t == wal.TagRelDelete || t == wal.TagIdxDelete }

func isWrite(t wal.Tag) bool { return t == wal.TagRelWrite || t == wal.TagIdxWrite }

// accumulate coalesces one transaction's record sequence, returning the
// surviving records (order preserved) and the number dropped. A record
// that survives unchanged is returned as is, encoding included.
func accumulate(recs []logRec) ([]*logRec, int) {
	out := make([]*logRec, 0, len(recs))
	last := make(map[accKey]int) // slot -> index of its live record in out
	dropped := 0
	for i := range recs {
		r := &recs[i]
		if r.Tag == wal.TagPartAlloc || r.Tag == wal.TagPartFree {
			out = append(out, r)
			continue
		}
		k := accKey{pid: uint64(r.PID.Segment)<<32 | uint64(r.PID.Part), slot: uint16(r.Slot)}
		j, seen := last[k]
		if !seen || out[j] == nil {
			out = append(out, r)
			last[k] = len(out) - 1
			continue
		}
		p := out[j]
		switch {
		case isDelete(r.Tag) && isInsert(p.Tag):
			// Insert + delete in one transaction: net nothing.
			out[j] = nil
			delete(last, k)
			dropped += 2
		case fullImage(r.Tag) || isDelete(r.Tag):
			// The later record fully determines the slot's state;
			// keep insert-ness from the earlier record so replay
			// still creates the slot.
			nr := r
			if isInsert(p.Tag) && (r.Tag == wal.TagRelUpdate || r.Tag == wal.TagIdxUpdate) {
				c := *r
				c.Tag, c.enc = wal.TagRelInsert, nil
				if r.Tag == wal.TagIdxUpdate {
					c.Tag = wal.TagIdxInsert
				}
				nr = &c
			}
			out[j] = nil
			out = append(out, nr)
			last[k] = len(out) - 1
			dropped++
		case isWrite(r.Tag) && fullImage(p.Tag):
			// Fold the in-place bytes into the full image.
			if int(r.Off)+len(r.Data) <= len(p.Data) {
				np := *p
				np.Data, np.enc = append([]byte(nil), p.Data...), nil
				copy(np.Data[r.Off:], r.Data)
				out[j] = &np
				dropped++
			} else {
				// Should not happen (the write fit physically), but
				// never coalesce unsoundly.
				out = append(out, r)
				last[k] = len(out) - 1
			}
		default:
			// write-after-write (or unexpected pairing): keep both,
			// tracking the newest.
			out = append(out, r)
			last[k] = len(out) - 1
		}
	}
	// Compact the nil holes.
	res := out[:0]
	for _, r := range out {
		if r != nil {
			res = append(res, r)
		}
	}
	return res, dropped
}
