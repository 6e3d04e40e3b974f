package stablemem

import (
	"bytes"
	"errors"
	"sync"
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

// TestRecycledBlockShowsNoStaleBytes: a recycled block comes back empty;
// its old bytes lie past Len, where nothing reads them, and an append
// overwrites them.
func TestRecycledBlockShowsNoStaleBytes(t *testing.T) {
	m := New(1<<20, 1, nil)
	reused := 0
	for i := 0; i < 64; i++ {
		a, err := m.NewBlock(100)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Append(bytes.Repeat([]byte{'A'}, 90)); err != nil {
			t.Fatal(err)
		}
		a.Recycle()
		b, err := m.NewBlock(100)
		if err != nil {
			t.Fatal(err)
		}
		if b == a {
			reused++
		}
		if b.Len() != 0 || b.Remaining() != 100 || b.Size() != 100 || len(b.Bytes()) != 0 {
			t.Fatalf("reissued block: Len %d Remaining %d Size %d Bytes %q", b.Len(), b.Remaining(), b.Size(), b.Bytes())
		}
		if err := b.Append([]byte("BB")); err != nil {
			t.Fatal(err)
		}
		if got := b.Bytes(); !bytes.Equal(got, []byte("BB")) {
			t.Fatalf("reissued block holds %q, want %q", got, "BB")
		}
		b.Recycle()
	}
	if reused == 0 {
		t.Fatal("no block was ever reissued from the pool")
	}
}

// TestFreedBlockFailsLoudly: a block's holder that outlives its claim
// gets ErrFreed from Append and a panic from Bytes, and a freed block is
// never handed out again; freeing or recycling twice changes nothing.
func TestFreedBlockFailsLoudly(t *testing.T) {
	m := New(1<<20, 1, nil)
	freed, err := m.NewBlock(64)
	if err != nil {
		t.Fatal(err)
	}
	freed.Free()
	freed.Recycle()
	freed.Free()
	if m.Used() != 0 {
		t.Fatalf("Used() after repeated frees = %d, want 0", m.Used())
	}
	if err := freed.Append([]byte("x")); !errors.Is(err, ErrFreed) {
		t.Fatalf("Append on a freed block: %v, want ErrFreed", err)
	}
	if err := freed.AppendWith(1, func([]byte) {}); !errors.Is(err, ErrFreed) {
		t.Fatalf("AppendWith on a freed block: %v, want ErrFreed", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Bytes of a freed block did not panic")
			}
		}()
		freed.Bytes()
	}()
	for i := 0; i < 256; i++ {
		b, err := m.NewBlock(64)
		if err != nil {
			t.Fatal(err)
		}
		if b == freed {
			t.Fatalf("NewBlock %d handed out a freed block", i)
		}
		b.Recycle()
		b.Recycle() // a second recycle must not put it in the pool twice
	}
	seen := map[*Block]bool{}
	for i := 0; i < 8; i++ {
		b, err := m.NewBlock(64)
		if err != nil {
			t.Fatal(err)
		}
		if seen[b] {
			t.Fatal("the pool handed one block out twice")
		}
		seen[b] = true
	}
}

// TestPoolKeepsCapacityAccounting: over many draw and recycle cycles of
// mixed sizes, Used counts exactly the live blocks' sizes and returns to
// its starting value; pooled blocks count as free, so the capacity bound
// holds as it did without the pool.
func TestPoolKeepsCapacityAccounting(t *testing.T) {
	m := New(64<<10, 1, nil)
	if err := m.Reserve(100); err != nil { // a typed structure's share
		t.Fatal(err)
	}
	sizes := []int{1, 512, 2 << 10, 3000, 8 << 10}
	for round := 0; round < 200; round++ {
		var live []*Block
		want := int64(100)
		for i, sz := range sizes {
			b, err := m.NewBlock(sz + round%7)
			if err != nil {
				t.Fatal(err)
			}
			if b.Size() != sz+round%7 {
				t.Fatalf("NewBlock(%d) is %d bytes", sz+round%7, b.Size())
			}
			if err := b.Append(bytes.Repeat([]byte{byte(i)}, b.Size())); err != nil {
				t.Fatal(err)
			}
			live = append(live, b)
			want += int64(b.Size())
		}
		if got := m.Used(); got != want {
			t.Fatalf("round %d: Used() = %d, want %d", round, got, want)
		}
		for i, b := range live {
			if i%2 == 0 {
				b.Recycle()
			} else {
				b.Free()
			}
		}
		if got := m.Used(); got != 100 {
			t.Fatalf("round %d: Used() after release = %d, want 100", round, got)
		}
	}
	// The bound is the configured capacity, pool or no pool.
	if _, err := m.NewBlock(64<<10 - 99); !errors.Is(err, ErrExhausted) {
		t.Fatalf("over-capacity NewBlock: %v, want ErrExhausted", err)
	}
	if _, err := m.NewBlock(64<<10 - 100); err != nil {
		t.Fatalf("NewBlock of exactly the free capacity: %v", err)
	}
}

// TestPoolConcurrentUse draws, fills, checks and recycles blocks from
// several goroutines at once over one Memory (run it under -race).
func TestPoolConcurrentUse(t *testing.T) {
	m := New(1<<20, 1, &metrics.Counter{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := bytes.Repeat([]byte{byte('a' + g)}, 512)
			for i := 0; i < 500; i++ {
				b, err := m.NewBlock(256 + 256*(i%3))
				if err != nil {
					t.Error(err)
					return
				}
				p := want[:b.Size()/2]
				if err := b.AppendWith(len(p), func(dst []byte) { copy(dst, p) }); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(b.Bytes(), p) {
					t.Errorf("goroutine %d: block holds %q", g, b.Bytes())
					return
				}
				b.Recycle()
			}
		}(g)
	}
	wg.Wait()
	if m.Used() != 0 {
		t.Fatalf("Used() = %d after every block was recycled", m.Used())
	}
}

// TestAppendsLandWhatTheFaultDecides: Append and the in-place
// AppendWith land what the fault decision says under every act on
// "stable.append" — clean, torn, mutated and failed alike — one hit per
// append, as a plain model of the decision does.
func TestAppendsLandWhatTheFaultDecides(t *testing.T) {
	acts := []fault.Rule{
		{Point: fault.PointStableAppend, Hit: 2, Act: fault.ActCrashTorn, Torn: 5},
		{Point: fault.PointStableAppend, Hit: 2, Act: fault.ActCrashTorn, Torn: -1},
		{Point: fault.PointStableAppend, Hit: 2, Act: fault.ActCrashBefore},
		{Point: fault.PointStableAppend, Hit: 2, Act: fault.ActCrashAfter},
		{Point: fault.PointStableAppend, Hit: 2, Act: fault.ActIOErr},
		{Point: fault.PointStableAppend, Hit: 2, Act: fault.ActMutFlip},
		{Point: fault.PointStableAppend, Hit: 2, Act: fault.ActMutZero},
		{Point: fault.PointStableAppend, Hit: 2, Act: fault.ActMutTrunc, Torn: -1},
		{Point: fault.PointStableAppend, Hit: 2, Act: fault.ActMutSplice},
	}
	recs := [][]byte{[]byte("first-record"), []byte("second-record-longer"), []byte("third")}
	plan := func(rule fault.Rule) *fault.Injector {
		return fault.NewInjector(fault.Plan{Seed: 11, Rules: []fault.Rule{rule}})
	}
	for _, rule := range acts {
		// The model: decide, damage a copy, keep the prefix that lands.
		model := plan(rule)
		var want []byte
		var wantErrs []error
		for _, p := range recs {
			dec := model.Check(fault.PointStableAppend, len(p))
			if dec.Mutated() {
				p = dec.MutateBytes(p)
			}
			n := dec.ApplyBytes(len(p))
			if dec.Err == nil || n > 0 {
				want = append(want, p[:n]...)
			}
			wantErrs = append(wantErrs, dec.Err)
		}
		for _, inPlace := range []bool{false, true} {
			m := New(1<<20, 1, nil)
			inj := plan(rule)
			m.SetInjector(inj)
			b, err := m.NewBlock(64)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range recs {
				if inPlace {
					err = b.AppendWith(len(p), func(dst []byte) { copy(dst, p) })
				} else {
					err = b.Append(p)
				}
				if !errors.Is(err, wantErrs[i]) || (err == nil) != (wantErrs[i] == nil) {
					t.Errorf("%v (in place %v): append %d: %v, want %v", rule.Act, inPlace, i, err, wantErrs[i])
				}
			}
			if !bytes.Equal(b.Bytes(), want) {
				t.Errorf("%v (in place %v): block holds %q, want %q", rule.Act, inPlace, b.Bytes(), want)
			}
			if got, wantHits := inj.Hits()[fault.PointStableAppend], model.Hits()[fault.PointStableAppend]; got != wantHits {
				t.Errorf("%v (in place %v): %d hits, want %d", rule.Act, inPlace, got, wantHits)
			}
		}
	}
}
