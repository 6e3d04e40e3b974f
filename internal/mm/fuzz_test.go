package mm

import (
	"bytes"
	"errors"
	"testing"

	"mmdb/internal/addr"
)

// FuzzFromImage feeds arbitrary bytes to the partition-image validator.
// It must never panic, FromImage and AdoptImage must agree on every
// input, and any image they accept must be safe to operate on: slot
// iteration, reads, an insert, and a delete must all stay in bounds
// (the validator's job is exactly to make the later fast paths
// unconditionally safe).
func FuzzFromImage(f *testing.F) {
	pid := addr.PartitionID{Segment: 2, Part: 1}
	// Seeds: a fresh empty partition, one with live entities, and one
	// with a free-chain hole.
	empty := NewPartition(pid, 512)
	f.Add(empty.Snapshot())
	filled := NewPartition(pid, 512)
	a, _ := filled.Insert([]byte("alpha"))
	if _, err := filled.Insert([]byte("beta-beta")); err != nil {
		f.Fatal(err)
	}
	f.Add(filled.Snapshot())
	if err := filled.Delete(a); err != nil {
		f.Fatal(err)
	}
	f.Add(filled.Snapshot())

	f.Fuzz(func(t *testing.T, image []byte) {
		p, err := FromImage(pid, image)
		// AdoptImage runs the same checks over the buffer it keeps:
		// it accepts exactly what FromImage accepts, as the same image.
		a, aerr := AdoptImage(pid, bytes.Clone(image))
		if (err == nil) != (aerr == nil) {
			t.Fatalf("FromImage: %v, AdoptImage: %v", err, aerr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(a.Image(), image) || !bytes.Equal(p.Image(), image) {
			t.Fatal("an accepted image differs from its input")
		}
		live := 0
		p.Slots(func(s addr.Slot, data []byte) bool {
			live++
			got, rerr := p.Read(s)
			if rerr != nil {
				t.Fatalf("slot %v surfaced by Slots but unreadable: %v", s, rerr)
			}
			if len(got) != len(data) {
				t.Fatalf("slot %v: Slots sees %d bytes, Read %d", s, len(data), len(got))
			}
			return true
		})
		if live != p.EntityCount() {
			t.Fatalf("Slots visited %d entities, EntityCount says %d", live, p.EntityCount())
		}
		// Insert decides whether an entity fits from the header alone, so
		// the header of an accepted image must agree with its slots, and
		// the decision must be exact: one byte more than Room is refused
		// without touching the image, Room bytes go in.
		room := p.Room()
		if want := slowRoom(p); room != want {
			t.Fatalf("header says room for %d bytes, slots say %d", room, want)
		}
		if over := room + 1; over <= MaxEntity(len(image)) {
			q, _ := FromImage(pid, image)
			if _, err := q.Insert(make([]byte, over)); !errors.Is(err, ErrPartitionFull) {
				t.Fatalf("insert of %d bytes with room for %d: %v", over, room, err)
			}
			if !bytes.Equal(q.Image(), image) {
				t.Fatal("refused insert changed the image")
			}
		}
		if room >= 0 {
			q, _ := FromImage(pid, image)
			if _, err := q.Insert(make([]byte, room)); err != nil {
				t.Fatalf("insert of %d bytes with room for %d: %v", room, room, err)
			}
			if q.Room() > 0 {
				t.Fatalf("exact-fit insert left room for %d bytes", q.Room())
			}
		}
		// Mutating an accepted image must not corrupt bookkeeping: an
		// insert (which walks the validated free chain) followed by a
		// delete must leave the entity count unchanged.
		before := p.EntityCount()
		s, ierr := p.Insert([]byte("probe"))
		if ierr != nil {
			return // legitimately full
		}
		if err := p.Delete(s); err != nil {
			t.Fatalf("delete of fresh insert failed: %v", err)
		}
		if p.EntityCount() != before {
			t.Fatalf("entity count %d after insert+delete, want %d", p.EntityCount(), before)
		}
	})
}
