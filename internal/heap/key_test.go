package heap

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// wideSchema has a fixed-width key at a fixed offset (id), one behind a
// string (score, tag) and a string key, so Key's two ways of finding a
// column are both exercised.
var wideSchema = Schema{
	{Name: "id", Type: Int64},
	{Name: "name", Type: String},
	{Name: "score", Type: Float64},
	{Name: "tag", Type: String},
	{Name: "n", Type: Int64},
}

func randomTuple(rng *rand.Rand) Tuple {
	return Tuple{
		rng.Int63n(20) - 10,
		strings.Repeat("x", rng.Intn(40)),
		float64(rng.Intn(20)-10) / 2,
		string(rune('a'+rng.Intn(4))) + strings.Repeat("y", rng.Intn(3)),
		rng.Int63(),
	}
}

// compareValues is the order the facade used to apply to decoded values.
func compareValues(a, b any) int {
	switch x := a.(type) {
	case int64:
		return compare(x, b.(int64))
	case float64:
		return compare(x, b.(float64))
	}
	return strings.Compare(a.(string), b.(string))
}

// TestKeyAgreesWithDecode holds the one-column read to the full decode:
// same value, same order against a search key, for every column.
func TestKeyAgreesWithDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		tup, probe := randomTuple(rng), randomTuple(rng)
		enc, err := wideSchema.Encode(tup)
		if err != nil {
			t.Fatal(err)
		}
		penc, _ := wideSchema.Encode(probe)
		for col := range wideSchema {
			k, err := wideSchema.Key(col)
			if err != nil {
				t.Fatal(err)
			}
			got, err := k.Compare(probe[col], enc)
			if want := compareValues(probe[col], tup[col]); err != nil || got != want {
				t.Fatalf("col %d: Compare(%v, %v) = %d, %v; want %d", col, probe[col], tup[col], got, err, want)
			}
			fa, err1 := k.Field(penc)
			fb, err2 := k.Field(enc)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if got, want := k.CompareFields(fa, fb), compareValues(probe[col], tup[col]); got != want {
				t.Fatalf("col %d: CompareFields(%v, %v) = %d, want %d", col, probe[col], tup[col], got, want)
			}
		}
	}
}

func TestKeyRejectsWrongTypeAndColumn(t *testing.T) {
	if _, err := wideSchema.Key(len(wideSchema)); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("out-of-range column: %v", err)
	}
	enc, _ := wideSchema.Encode(randomTuple(rand.New(rand.NewSource(2))))
	k, _ := wideSchema.Key(0)
	for _, v := range []any{"1", 1.0, 1, nil} {
		if k.Accepts(v) {
			t.Errorf("int64 key accepts %T", v)
		}
		if _, err := k.Compare(v, enc); !errors.Is(err, ErrSchemaMismatch) {
			t.Errorf("Compare(%T): %v", v, err)
		}
	}
	if !k.Accepts(int64(1)) {
		t.Error("int64 key refuses int64")
	}
}

// TestKeyValidatesWhatItWalks cuts an encoded tuple at every length: the
// read fails with ErrCorruptTuple exactly when a byte it needs is gone,
// and never looks past the column — bytes after it may be anything.
func TestKeyValidatesWhatItWalks(t *testing.T) {
	tup := Tuple{int64(7), "alice", 2.5, "t", int64(9)}
	enc, _ := wideSchema.Encode(tup)
	ends := []int{8, 8 + 2 + 5, 8 + 2 + 5 + 8, 8 + 2 + 5 + 8 + 2 + 1, len(enc)} // first byte past each column
	for col, end := range ends {
		k, _ := wideSchema.Key(col)
		for cut := 0; cut <= len(enc); cut++ {
			_, err := k.Field(enc[:cut])
			if cut < end && !errors.Is(err, ErrCorruptTuple) {
				t.Fatalf("col %d cut %d: %v, want ErrCorruptTuple", col, cut, err)
			}
			if cut >= end && err != nil {
				t.Fatalf("col %d cut %d: %v", col, cut, err)
			}
		}
		garbage := append(append([]byte(nil), enc[:end]...), 0xFF, 0xFF, 0xFF)
		if c, err := k.Compare(tup[col], garbage); err != nil || c != 0 {
			t.Fatalf("col %d with trailing garbage: %d, %v", col, c, err)
		}
		if _, err := wideSchema.Decode(garbage); !errors.Is(err, ErrCorruptTuple) {
			t.Fatalf("Decode accepted the garbage Key does not look at: %v", err)
		}
	}
	// A string length that points past the end is caught on the way to a
	// later column, not only at the string itself.
	bad := append([]byte(nil), enc...)
	bad[8], bad[9] = 0xFF, 0xFF
	for col := 1; col < len(wideSchema); col++ {
		k, _ := wideSchema.Key(col)
		if _, err := k.Field(bad); !errors.Is(err, ErrCorruptTuple) {
			t.Fatalf("col %d behind an overlong string: %v", col, err)
		}
	}
}

func TestKeyNaNComparesEqual(t *testing.T) {
	s := Schema{{Name: "f", Type: Float64}}
	enc, _ := s.Encode(Tuple{math.NaN()})
	k, _ := s.Key(0)
	if c, err := k.Compare(1.0, enc); err != nil || c != 0 {
		t.Fatalf("1.0 vs NaN: %d, %v (the < and > operators say neither)", c, err)
	}
}

// TestKeyReadAllocatesNothing is the cost the index comparators rest on:
// reading and comparing a key allocates nothing, fixed-width or string,
// at a fixed offset or behind a string.
func TestKeyReadAllocatesNothing(t *testing.T) {
	enc, _ := wideSchema.Encode(Tuple{int64(7), strings.Repeat("n", 100), 2.5, strings.Repeat("t", 100), int64(9)})
	keys := []any{int64(7), strings.Repeat("n", 100), 2.5, strings.Repeat("t", 99) + "u", int64(10)}
	for col, key := range keys {
		k, _ := wideSchema.Key(col)
		var sink int
		if n := testing.AllocsPerRun(200, func() {
			c, err := k.Compare(key, enc)
			if err != nil {
				t.Fatal(err)
			}
			f, _ := k.Field(enc)
			sink += c + len(f)
		}); n != 0 {
			t.Errorf("col %d (%v): %.0f allocs per key read", col, wideSchema[col].Type, n)
		}
	}
}
