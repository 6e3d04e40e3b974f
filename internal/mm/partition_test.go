package mm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"mmdb/internal/addr"
)

var testPID = addr.PartitionID{Segment: 2, Part: 0}

func TestInsertReadDelete(t *testing.T) {
	p := NewPartition(testPID, 4096)
	s1, err := p.Insert([]byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Insert([]byte("beta"))
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("duplicate slots")
	}
	got, err := p.Read(s1)
	if err != nil || !bytes.Equal(got, []byte("alpha")) {
		t.Fatalf("Read(s1) = %q, %v", got, err)
	}
	if p.EntityCount() != 2 {
		t.Fatalf("EntityCount = %d", p.EntityCount())
	}
	if err := p.Delete(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(s1); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("read of deleted slot: %v", err)
	}
	if err := p.Delete(s1); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("double delete: %v", err)
	}
	// Deleted slot is reused.
	s3, err := p.Insert([]byte("gamma"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Fatalf("free slot not reused: got %d want %d", s3, s1)
	}
}

func TestUpdateInPlaceAndRealloc(t *testing.T) {
	p := NewPartition(testPID, 4096)
	s, _ := p.Insert([]byte("aaaa"))
	if err := p.Update(s, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Read(s)
	if !bytes.Equal(got, []byte("bbbb")) {
		t.Fatalf("in-place update: %q", got)
	}
	if err := p.Update(s, []byte("a longer value than before")); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Read(s)
	if !bytes.Equal(got, []byte("a longer value than before")) {
		t.Fatalf("realloc update: %q", got)
	}
	if err := p.Update(s, []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Read(s)
	if !bytes.Equal(got, []byte("x")) {
		t.Fatalf("shrink update: %q", got)
	}
}

func TestWriteAt(t *testing.T) {
	p := NewPartition(testPID, 4096)
	s, _ := p.Insert([]byte("abcdef"))
	if err := p.WriteAt(s, 2, []byte("XY")); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Read(s)
	if !bytes.Equal(got, []byte("abXYef")) {
		t.Fatalf("WriteAt result: %q", got)
	}
	if err := p.WriteAt(s, 5, []byte("ZZ")); err == nil {
		t.Fatal("out-of-range WriteAt succeeded")
	}
	if err := p.WriteAt(s, -1, []byte("Z")); err == nil {
		t.Fatal("negative-offset WriteAt succeeded")
	}
}

func TestPartitionFullAndCompaction(t *testing.T) {
	p := NewPartition(testPID, 1024)
	var slots []addr.Slot
	chunk := bytes.Repeat([]byte{7}, 100)
	for {
		s, err := p.Insert(chunk)
		if err != nil {
			if !errors.Is(err, ErrPartitionFull) {
				t.Fatal(err)
			}
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 8 {
		t.Fatalf("only %d inserts fit in 1KB", len(slots))
	}
	// Free every other entity, creating dead holes, then insert an
	// entity larger than any single hole: compaction must make room.
	for i := 0; i < len(slots); i += 2 {
		if err := p.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte{9}, 150)
	s, err := p.Insert(big)
	if err != nil {
		t.Fatalf("insert after fragmentation: %v", err)
	}
	got, _ := p.Read(s)
	if !bytes.Equal(got, big) {
		t.Fatal("content after compaction")
	}
	// Survivors are intact.
	for i := 1; i < len(slots); i += 2 {
		got, err := p.Read(slots[i])
		if err != nil || !bytes.Equal(got, chunk) {
			t.Fatalf("survivor %d corrupted after compaction: %v", slots[i], err)
		}
	}
}

func TestEntityTooBig(t *testing.T) {
	p := NewPartition(testPID, 1024)
	if _, err := p.Insert(make([]byte, 2000)); !errors.Is(err, ErrEntityTooBig) {
		t.Fatalf("oversized insert: %v", err)
	}
}

func TestInsertAt(t *testing.T) {
	p := NewPartition(testPID, 4096)
	if err := p.InsertAt(3, []byte("three")); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(3)
	if err != nil || !bytes.Equal(got, []byte("three")) {
		t.Fatalf("Read(3) = %q, %v", got, err)
	}
	// Slots 0..2 were created free; normal inserts reuse them.
	s, err := p.Insert([]byte("reuse"))
	if err != nil {
		t.Fatal(err)
	}
	if s > 2 {
		t.Fatalf("free slot not reused: got %d", s)
	}
	if err := p.InsertAt(3, []byte("dup")); err == nil {
		t.Fatal("InsertAt into occupied slot succeeded")
	}
	// InsertAt into a mid-chain free slot.
	if err := p.InsertAt(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Read(1)
	if !bytes.Equal(got, []byte("one")) {
		t.Fatalf("Read(1) = %q", got)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := NewPartition(testPID, 2048)
	s1, _ := p.Insert([]byte("persist me"))
	s2, _ := p.Insert([]byte("me too"))
	if err := p.Delete(s2); err != nil {
		t.Fatal(err)
	}
	img := p.Snapshot()
	q, err := FromImage(testPID, img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Read(s1)
	if err != nil || !bytes.Equal(got, []byte("persist me")) {
		t.Fatalf("restored read: %q, %v", got, err)
	}
	if _, err := q.Read(s2); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("deleted entity present after restore: %v", err)
	}
	// The restored image allocates like the original would.
	s3, err := q.Insert([]byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s2 {
		t.Fatalf("restored free chain differs: got %d want %d", s3, s2)
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	p := NewPartition(testPID, 1024)
	s, _ := p.Insert([]byte("orig"))
	img := p.Snapshot()
	if err := p.Update(s, []byte("mutd")); err != nil {
		t.Fatal(err)
	}
	q, err := FromImage(testPID, img)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := q.Read(s)
	if !bytes.Equal(got, []byte("orig")) {
		t.Fatal("snapshot aliases live image")
	}
}

// TestAdoptedImageCopyOnWrite runs every mutator on an adopted image:
// each must leave the source bytes as they were and the partition equal
// to the same operation on a private copy. The source's bump gap is
// short of the insert and the resize below, so both compact first.
func TestAdoptedImageCopyOnWrite(t *testing.T) {
	src := NewPartition(testPID, 512)
	s0, _ := src.Insert(bytes.Repeat([]byte{'a'}, 40))
	s1, _ := src.Insert(bytes.Repeat([]byte{'b'}, 200))
	s2, _ := src.Insert(bytes.Repeat([]byte{'c'}, 40))
	if _, err := src.Insert(bytes.Repeat([]byte{'d'}, 150)); err != nil {
		t.Fatal(err)
	}
	if err := src.Delete(s1); err != nil {
		t.Fatal(err)
	}
	image := src.Snapshot()
	gap := int(src.u32(hdrHeapTop)) - src.slotTableEnd()
	if gap >= 60 || src.Room() < 100 {
		t.Fatalf("fixture: gap %d, room %d; want a gap under 60 and room for 100", gap, src.Room())
	}
	tableEnd := addr.Slot(src.u16(hdrNumSlots))

	cases := []struct {
		name string
		op   func(p *Partition) error
	}{
		{"update same size", func(p *Partition) error { return p.Update(s0, bytes.Repeat([]byte{'A'}, 40)) }},
		{"update resize", func(p *Partition) error { return p.Update(s0, bytes.Repeat([]byte{'A'}, 60)) }},
		{"insert that compacts", func(p *Partition) error { _, err := p.Insert(bytes.Repeat([]byte{'e'}, 100)); return err }},
		{"insertAt past the table end", func(p *Partition) error { return p.InsertAt(tableEnd+2, []byte("zeta")) }},
		{"writeAt", func(p *Partition) error { return p.WriteAt(s2, 1, []byte("XY")) }},
		{"delete", func(p *Partition) error { return p.Delete(s2) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			source := bytes.Clone(image)
			adopted, err := AdoptImage(testPID, source)
			if err != nil {
				t.Fatal(err)
			}
			private, err := FromImage(testPID, image)
			if err != nil {
				t.Fatal(err)
			}
			if !adopted.Shared() || private.Shared() {
				t.Fatalf("Shared: adopted %v, private %v; want true, false", adopted.Shared(), private.Shared())
			}
			if err := c.op(adopted); err != nil {
				t.Fatal(err)
			}
			if err := c.op(private); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(source, image) {
				t.Fatal("the mutation wrote to the adopted source")
			}
			if adopted.Shared() {
				t.Fatal("a written partition still shares its source")
			}
			if !bytes.Equal(adopted.Image(), private.Image()) {
				t.Fatal("the adopted partition differs from the same operation on a private copy")
			}
		})
	}
}

func TestSlotsIteration(t *testing.T) {
	p := NewPartition(testPID, 2048)
	want := map[addr.Slot][]byte{}
	for i := 0; i < 5; i++ {
		data := []byte{byte(i), byte(i + 1)}
		s, _ := p.Insert(data)
		want[s] = data
	}
	var n int
	p.Slots(func(s addr.Slot, data []byte) bool {
		if !bytes.Equal(data, want[s]) {
			t.Errorf("slot %d: %v", s, data)
		}
		n++
		return true
	})
	if n != 5 {
		t.Fatalf("iterated %d entities", n)
	}
	// Early stop.
	n = 0
	p.Slots(func(s addr.Slot, data []byte) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop iterated %d", n)
	}
}

// TestPartitionModelEquivalence drives a partition with random
// operations against a map model; the partition must agree with the
// model at every step, and free-space accounting must never go
// negative.
func TestPartitionModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := NewPartition(testPID, 8192)
	model := map[addr.Slot][]byte{}
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(100); {
		case op < 45: // insert
			data := make([]byte, 1+rng.Intn(64))
			rng.Read(data)
			s, err := p.Insert(data)
			if errors.Is(err, ErrPartitionFull) {
				// drop something to make progress
				for ms := range model {
					if err := p.Delete(ms); err != nil {
						t.Fatal(err)
					}
					delete(model, ms)
					break
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := model[s]; dup {
				t.Fatalf("step %d: slot %d double-allocated", step, s)
			}
			model[s] = append([]byte(nil), data...)
		case op < 70: // update
			for s := range model {
				data := make([]byte, 1+rng.Intn(64))
				rng.Read(data)
				if err := p.Update(s, data); err != nil {
					if errors.Is(err, ErrPartitionFull) {
						break
					}
					t.Fatal(err)
				}
				model[s] = append([]byte(nil), data...)
				break
			}
		default: // delete
			for s := range model {
				if err := p.Delete(s); err != nil {
					t.Fatal(err)
				}
				delete(model, s)
				break
			}
		}
		if p.FreeBytes() < 0 {
			t.Fatalf("step %d: negative free bytes", step)
		}
		if p.EntityCount() != len(model) {
			t.Fatalf("step %d: count %d, model %d", step, p.EntityCount(), len(model))
		}
	}
	for s, want := range model {
		got, err := p.Read(s)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("final slot %d: %v", s, err)
		}
	}
	// Full snapshot/restore preserves the final state.
	q, err := FromImage(testPID, p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for s, want := range model {
		got, err := q.Read(s)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("restored slot %d: %v", s, err)
		}
	}
}

func TestInsertQuickProperty(t *testing.T) {
	// Any sequence of inserts that succeeds is fully readable back.
	f := func(blobs [][]byte) bool {
		p := NewPartition(testPID, 16384)
		kept := map[addr.Slot][]byte{}
		for _, b := range blobs {
			if len(b) == 0 {
				continue
			}
			s, err := p.Insert(b)
			if err != nil {
				continue
			}
			kept[s] = b
		}
		for s, want := range kept {
			got, err := p.Read(s)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
