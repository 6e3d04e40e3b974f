package stablemem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"mmdb/internal/fault"
	"mmdb/internal/metrics"
)

func TestReserveRelease(t *testing.T) {
	m := New(100, 4, nil)
	if err := m.Reserve(60); err != nil {
		t.Fatal(err)
	}
	if err := m.Reserve(50); !errors.Is(err, ErrExhausted) {
		t.Fatalf("over-reserve: got %v, want ErrExhausted", err)
	}
	if got := m.Used(); got != 60 {
		t.Fatalf("Used() = %d, want 60", got)
	}
	m.Release(60)
	if got := m.Used(); got != 0 {
		t.Fatalf("Used() after release = %d, want 0", got)
	}
	if err := m.Reserve(100); err != nil {
		t.Fatalf("full-capacity reserve after release: %v", err)
	}
}

func TestReleaseUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("release underflow did not panic")
		}
	}()
	New(10, 1, nil).Release(1)
}

func TestBlockAppendBytes(t *testing.T) {
	m := New(1024, 4, &metrics.Counter{})
	b, err := m.NewBlock(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Append([]byte("hello")); err != nil {
		t.Fatalf("append failed: %v", err)
	}
	if err := b.Append([]byte(" world")); err != nil {
		t.Fatalf("second append failed: %v", err)
	}
	if err := b.Append(make([]byte, 6)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overflowing append: got %v, want ErrNoSpace", err)
	}
	if got := b.Bytes(); !bytes.Equal(got, []byte("hello world")) {
		t.Fatalf("Bytes() = %q", got)
	}
	if b.Len() != 11 || b.Remaining() != 5 || b.Size() != 16 {
		t.Fatalf("Len/Remaining/Size = %d/%d/%d", b.Len(), b.Remaining(), b.Size())
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not empty block")
	}
	b.Free()
	if m.Used() != 0 {
		t.Fatalf("Used() after Free = %d", m.Used())
	}
	b.Free() // double free must be a no-op
}

func TestBlockAllocationRespectsCapacity(t *testing.T) {
	m := New(32, 1, nil)
	b1, err := m.NewBlock(32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewBlock(1); !errors.Is(err, ErrExhausted) {
		t.Fatalf("got %v, want ErrExhausted", err)
	}
	b1.Free()
	if _, err := m.NewBlock(32); err != nil {
		t.Fatal(err)
	}
}

func TestSlowdownCharging(t *testing.T) {
	refs := &metrics.Counter{}
	m := New(1024, 4, refs)
	m.ChargeWrite(10)
	m.ChargeRead(5)
	if got := refs.Value(); got != 60 {
		t.Fatalf("stable refs = %d, want 60 (15 bytes x slowdown 4)", got)
	}
	// slowdown below 1 is clamped to 1
	m2 := New(1024, 0, refs)
	m2.ChargeWrite(7)
	if got := refs.Value() - 60; got != 7 {
		t.Fatalf("clamped slowdown charge = %d, want 7", got)
	}
	// The memory outlives the registry counting it: after SetRefs the
	// next generation's counter takes the charges, the old one none.
	next := &metrics.Counter{}
	m.SetRefs(next)
	m.ChargeWrite(2)
	if refs.Value() != 67 || next.Value() != 8 {
		t.Fatalf("after SetRefs: old = %d (want 67), new = %d (want 8)", refs.Value(), next.Value())
	}
	m.SetRefs(nil) // detached: charges nothing, must not panic
	m.ChargeRead(1)
}

func TestRootRegistry(t *testing.T) {
	m := New(1024, 1, nil)
	if m.Root("slt") != nil {
		t.Fatal("unregistered root not nil")
	}
	v := &struct{ X int }{X: 42}
	m.SetRoot("slt", v)
	got, ok := m.Root("slt").(*struct{ X int })
	if !ok || got.X != 42 {
		t.Fatalf("Root() = %#v", m.Root("slt"))
	}
}

func TestBlockAppendProperty(t *testing.T) {
	// Appending arbitrary chunks never corrupts earlier contents and
	// Bytes always equals the concatenation of accepted appends.
	f := func(chunks [][]byte) bool {
		m := New(1<<20, 2, &metrics.Counter{})
		b, err := m.NewBlock(256)
		if err != nil {
			return false
		}
		var want []byte
		for _, c := range chunks {
			if b.Append(c) == nil {
				want = append(want, c...)
			}
		}
		return bytes.Equal(b.Bytes(), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockTornAppendAndTruncate(t *testing.T) {
	m := New(1024, 1, nil)
	inj := fault.NewInjector(fault.Plan{Seed: 3, Rules: []fault.Rule{
		{Point: fault.PointStableAppend, Hit: 2, Act: fault.ActCrashTorn, Torn: 4},
	}})
	m.SetInjector(inj)
	b, err := m.NewBlock(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Append([]byte("clean-record")); err != nil {
		t.Fatal(err)
	}
	if err := b.Append([]byte("torn-record")); !fault.IsCrash(err) {
		t.Fatalf("torn append: %v, want crash", err)
	}
	want := []byte("clean-recordtorn")
	if got := b.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("block after torn append = %q, want %q", got, want)
	}
	// Restart cuts the torn tail back to the record boundary.
	b.Truncate(len("clean-record"))
	if got := b.Bytes(); !bytes.Equal(got, []byte("clean-record")) {
		t.Fatalf("block after truncate = %q", got)
	}
	// Truncate never grows and clamps negatives.
	b.Truncate(1000)
	if b.Len() != len("clean-record") {
		t.Fatalf("Truncate grew the block to %d", b.Len())
	}
	b.Truncate(-1)
	if b.Len() != 0 {
		t.Fatalf("Truncate(-1) left %d bytes", b.Len())
	}
	// All appends fail while the machine is crashed.
	if err := b.Append([]byte("x")); !fault.IsCrash(err) {
		t.Fatalf("append on crashed machine: %v", err)
	}
	inj.Reset()
	if err := b.Append([]byte("x")); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
}
