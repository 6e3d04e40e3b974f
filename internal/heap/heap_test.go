package heap

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

var accountSchema = Schema{
	{Name: "id", Type: Int64},
	{Name: "balance", Type: Float64},
	{Name: "owner", Type: String},
}

func TestSchemaValidate(t *testing.T) {
	if err := accountSchema.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schema{
		{},
		{{Name: "", Type: Int64}},
		{{Name: "a", Type: Int64}, {Name: "a", Type: Int64}},
		{{Name: "a", Type: ColType(99)}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tup := Tuple{int64(42), 99.5, "alice"}
	enc, err := accountSchema.Encode(tup)
	if err != nil {
		t.Fatal(err)
	}
	got, err := accountSchema.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tup) {
		t.Fatalf("round trip: %v vs %v", got, tup)
	}
}

func TestEncodeTypeErrors(t *testing.T) {
	cases := []Tuple{
		{int64(1), 2.0},                             // too few
		{int64(1), 2.0, "x", "y"},                   // too many
		{"not-int", 2.0, "x"},                       // wrong type
		{int64(1), "not-float", "x"},                // wrong type
		{int64(1), 2.0, 3},                          // wrong type
		{int64(1), 2.0, strings.Repeat("x", 70000)}, // oversize string
	}
	for i, c := range cases {
		if _, err := accountSchema.Encode(c); !errors.Is(err, ErrSchemaMismatch) {
			t.Errorf("case %d: got %v", i, err)
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	tup := Tuple{int64(42), 1.0, "bob"}
	enc, _ := accountSchema.Encode(tup)
	for _, cut := range []int{3, 9, 17, len(enc) - 1} {
		if _, err := accountSchema.Decode(enc[:cut]); !errors.Is(err, ErrCorruptTuple) {
			t.Errorf("cut at %d: %v", cut, err)
		}
	}
	if _, err := accountSchema.Decode(append(enc, 0)); !errors.Is(err, ErrCorruptTuple) {
		t.Error("trailing bytes accepted")
	}
}

func TestColIndex(t *testing.T) {
	i, err := accountSchema.ColIndex("balance")
	if err != nil || i != 1 {
		t.Fatalf("ColIndex = %d, %v", i, err)
	}
	if _, err := accountSchema.ColIndex("ghost"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("missing column: %v", err)
	}
}

// TestLayoutOffsets reads each column's span out of an encoded tuple,
// fixed-width columns before and after a string alike.
func TestLayoutOffsets(t *testing.T) {
	enc, _ := wideSchema.Encode(Tuple{int64(7), "alice", 2.5, "", int64(9)})
	offs, err := wideSchema.Layout(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 8, 15, 23, 25, 33}; !slices.Equal(offs, want) {
		t.Fatalf("Layout = %v, want %v", offs, want)
	}
	if offs[len(offs)-1] != len(enc) {
		t.Fatalf("last offset %d, tuple is %d bytes", offs[len(offs)-1], len(enc))
	}
}

// TestLayoutRejectsWhatDecodeRejects cuts, pads and overstates an
// encoded tuple: Layout fails exactly when Decode does.
func TestLayoutRejectsWhatDecodeRejects(t *testing.T) {
	enc, _ := wideSchema.Encode(Tuple{int64(7), "alice", 2.5, "t", int64(9)})
	bad := append([]byte(nil), enc...)
	bad[8], bad[9] = 0xFF, 0xFF
	inputs := [][]byte{append(enc, 0), bad, enc}
	for cut := 0; cut < len(enc); cut++ {
		inputs = append(inputs, enc[:cut])
	}
	for _, in := range inputs {
		_, lerr := wideSchema.Layout(in, nil)
		_, derr := wideSchema.Decode(in)
		if (lerr == nil) != (derr == nil) || (lerr != nil && !errors.Is(lerr, ErrCorruptTuple)) {
			t.Fatalf("%d bytes: Layout %v, Decode %v", len(in), lerr, derr)
		}
	}
}

// TestAppendValueMatchesFullEncoding patches each column of an encoded
// tuple with AppendValue's bytes and compares against re-encoding.
func TestAppendValueMatchesFullEncoding(t *testing.T) {
	tup := Tuple{int64(7), 2.5, "carol"}
	for col, v := range []any{int64(8), 3.75, "dave"} {
		enc, _ := accountSchema.Encode(tup)
		offs, _ := accountSchema.Layout(enc, nil)
		val, err := accountSchema.AppendValue(nil, col, v)
		if err != nil {
			t.Fatal(err)
		}
		patched := slices.Concat(enc[:offs[col]], val, enc[offs[col+1]:])
		want := tup.Clone()
		want[col] = v
		if wantEnc, _ := accountSchema.Encode(want); !slices.Equal(patched, wantEnc) {
			t.Fatalf("col %d: patched %x, encoded %x", col, patched, wantEnc)
		}
	}
	if _, err := accountSchema.AppendValue(nil, 2, 1.0); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("float on string column: %v", err)
	}
	if _, err := accountSchema.AppendValue(nil, 1, int64(1)); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("type mismatch: %v", err)
	}
	if _, err := accountSchema.AppendValue(nil, 2, strings.Repeat("x", 70000)); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("oversize string: %v", err)
	}
	if _, err := accountSchema.AppendValue(nil, 9, int64(1)); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("bad column: %v", err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(i int64, fbits uint64, s string) bool {
		fv := math.Float64frombits(fbits)
		if math.IsNaN(fv) {
			fv = 0 // NaN != NaN breaks Equal; not a codec concern
		}
		if len(s) > math.MaxUint16 {
			s = s[:math.MaxUint16]
		}
		tup := Tuple{i, fv, s}
		enc, err := accountSchema.Encode(tup)
		if err != nil {
			return false
		}
		got, err := accountSchema.Decode(enc)
		return err == nil && got.Equal(tup)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTupleCloneEqual(t *testing.T) {
	a := Tuple{int64(1), 2.0, "x"}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b[0] = int64(2)
	if a.Equal(b) {
		t.Fatal("clone aliases original")
	}
	if a.Equal(Tuple{int64(1), 2.0}) {
		t.Fatal("length mismatch reported equal")
	}
}

func TestColTypeString(t *testing.T) {
	if Int64.String() != "int64" || Float64.String() != "float64" || String.String() != "string" {
		t.Fatal("type names")
	}
	if ColType(9).String() != "coltype(9)" {
		t.Fatal("unknown type name")
	}
	if Int64.Fixed() != true || String.Fixed() != false {
		t.Fatal("Fixed()")
	}
}
