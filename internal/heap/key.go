package heap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Key reads one column out of encoded tuples where they lie, without
// decoding the rest: what an index comparison needs. The indexes hold
// tuple pointers and compare by reading the key out of the tuple
// (§2.3.2, [Lehman 86c]); Key is that read. It is built once per index
// (Schema.Key) and is safe for concurrent use.
type Key struct {
	schema Schema
	col    int
	typ    ColType
	off    int // byte offset of the column when every earlier one is fixed-width, else -1
}

// Key returns the accessor for column col.
func (s Schema) Key(col int) (Key, error) {
	if col < 0 || col >= len(s) {
		return Key{}, fmt.Errorf("%w: column %d", ErrNoColumn, col)
	}
	k := Key{schema: s, col: col, typ: s[col].Type, off: 0}
	for _, c := range s[:col] {
		if !c.Type.Fixed() {
			k.off = -1
			break
		}
		k.off += 8
	}
	return k, nil
}

// Field returns the column's value bytes inside tuple: the 8
// little-endian bytes of an int64 or float64, or a string's body. Every
// byte walked to get there is bounds-checked; the columns after it are
// not looked at (Decode is what validates a whole tuple). The result
// aliases tuple.
func (k Key) Field(tuple []byte) ([]byte, error) {
	off := k.off
	if off < 0 {
		off = 0
		for _, c := range k.schema[:k.col] {
			if c.Type.Fixed() {
				off += 8
				continue
			}
			if len(tuple) < off+2 {
				return nil, fmt.Errorf("%w: truncated string header %q", ErrCorruptTuple, c.Name)
			}
			off += 2 + int(binary.LittleEndian.Uint16(tuple[off:]))
		}
	}
	if k.typ.Fixed() {
		if len(tuple) < off+8 {
			return nil, fmt.Errorf("%w: truncated %v column %q", ErrCorruptTuple, k.typ, k.schema[k.col].Name)
		}
		return tuple[off : off+8 : off+8], nil
	}
	if len(tuple) < off+2 {
		return nil, fmt.Errorf("%w: truncated string header %q", ErrCorruptTuple, k.schema[k.col].Name)
	}
	n := int(binary.LittleEndian.Uint16(tuple[off:]))
	off += 2
	if len(tuple) < off+n {
		return nil, fmt.Errorf("%w: truncated string column %q", ErrCorruptTuple, k.schema[k.col].Name)
	}
	return tuple[off : off+n : off+n], nil
}

// Accepts reports whether v has the column's Go type.
func (k Key) Accepts(v any) bool {
	switch v.(type) {
	case int64:
		return k.typ == Int64
	case float64:
		return k.typ == Float64
	case string:
		return k.typ == String
	}
	return false
}

// Compare orders the search value v against the column of the encoded
// tuple: negative when v sorts first. The stored value is compared where
// it lies — it is neither boxed nor, for a string, copied out.
func (k Key) Compare(v any, tuple []byte) (int, error) {
	f, err := k.Field(tuple)
	if err != nil {
		return 0, err
	}
	switch x := v.(type) {
	case int64:
		if k.typ == Int64 {
			return compare(x, int64(binary.LittleEndian.Uint64(f))), nil
		}
	case float64:
		if k.typ == Float64 {
			return compare(x, math.Float64frombits(binary.LittleEndian.Uint64(f))), nil
		}
	case string:
		if k.typ == String {
			return compareStringBytes(x, f), nil
		}
	}
	return 0, fmt.Errorf("%w: column %q wants %v, got %T", ErrSchemaMismatch, k.schema[k.col].Name, k.typ, v)
}

// CompareFields orders two values of the column given as Field returned
// them.
func (k Key) CompareFields(a, b []byte) int {
	switch k.typ {
	case Int64:
		return compare(int64(binary.LittleEndian.Uint64(a)), int64(binary.LittleEndian.Uint64(b)))
	case Float64:
		return compare(math.Float64frombits(binary.LittleEndian.Uint64(a)), math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
	return bytes.Compare(a, b)
}

// compare is cmp.Compare without its NaN ordering: a NaN is neither
// below nor above anything, as with the < and > operators.
func compare[T int64 | float64](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// compareStringBytes is strings.Compare(s, string(b)) without copying b:
// a conversion that is an operand of a comparison does not allocate.
func compareStringBytes(s string, b []byte) int {
	switch {
	case s < string(b):
		return -1
	case s > string(b):
		return 1
	}
	return 0
}
