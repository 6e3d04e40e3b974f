// Package heap implements relation tuple storage: typed schemas and the
// tuple encoding used inside partitions. Tuples are entities — they
// live in relation-segment partitions and never cross partition
// boundaries (§2). Variable-length string bytes are carried inline in
// the tuple's heap allocation (the partition's string space), which the
// partition manages as a heap; this is why relation log records are
// operation records for a partition (§2.3.2).
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ColType is a column's data type.
type ColType uint8

// Supported column types.
const (
	Int64 ColType = iota + 1
	Float64
	String
)

func (t ColType) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("coltype(%d)", uint8(t))
	}
}

// Fixed reports whether the type has a fixed-width encoding.
func (t ColType) Fixed() bool { return t == Int64 || t == Float64 }

// Column describes one relation column.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered list of columns.
type Schema []Column

// Errors returned by the tuple codec.
var (
	ErrSchemaMismatch = errors.New("heap: value does not match schema")
	ErrCorruptTuple   = errors.New("heap: corrupt tuple encoding")
	ErrNoColumn       = errors.New("heap: no such column")
)

// ColIndex returns the index of the named column.
func (s Schema) ColIndex(name string) (int, error) {
	for i, c := range s {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrNoColumn, name)
}

// Validate checks the schema for duplicate names and valid types.
func (s Schema) Validate() error {
	if len(s) == 0 {
		return errors.New("heap: empty schema")
	}
	seen := make(map[string]bool, len(s))
	for _, c := range s {
		if c.Name == "" {
			return errors.New("heap: empty column name")
		}
		if seen[c.Name] {
			return fmt.Errorf("heap: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
		switch c.Type {
		case Int64, Float64, String:
		default:
			return fmt.Errorf("heap: column %q has invalid type %v", c.Name, c.Type)
		}
	}
	return nil
}

// Tuple is a decoded row: one value per schema column. Values are
// int64, float64, or string.
type Tuple []any

// Encode serialises the tuple per the schema. Fixed-width columns are
// stored in place; strings as u16 length + bytes.
func (s Schema) Encode(t Tuple) ([]byte, error) {
	if len(t) != len(s) {
		return nil, fmt.Errorf("%w: %d values for %d columns", ErrSchemaMismatch, len(t), len(s))
	}
	size := 0
	for _, v := range t {
		if str, ok := v.(string); ok {
			size += 2 + len(str)
		} else {
			size += 8
		}
	}
	out := make([]byte, 0, size)
	for i := range s {
		var err error
		if out, err = s.AppendValue(out, i, t[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AppendValue appends v encoded as column col, as Encode lays it out, to
// dst.
func (s Schema) AppendValue(dst []byte, col int, v any) ([]byte, error) {
	if col < 0 || col >= len(s) {
		return nil, fmt.Errorf("%w: column %d", ErrNoColumn, col)
	}
	c := s[col]
	switch x := v.(type) {
	case int64:
		if c.Type == Int64 {
			return binary.LittleEndian.AppendUint64(dst, uint64(x)), nil
		}
	case float64:
		if c.Type == Float64 {
			return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x)), nil
		}
	case string:
		if c.Type == String {
			if len(x) > math.MaxUint16 {
				return nil, fmt.Errorf("%w: string column %q too long (%d bytes)", ErrSchemaMismatch, c.Name, len(x))
			}
			return append(binary.LittleEndian.AppendUint16(dst, uint16(len(x))), x...), nil
		}
	}
	return nil, fmt.Errorf("%w: column %q wants %v, got %T", ErrSchemaMismatch, c.Name, c.Type, v)
}

// Decode parses an encoded tuple.
func (s Schema) Decode(buf []byte) (Tuple, error) {
	t := make(Tuple, len(s))
	for i, c := range s {
		switch c.Type {
		case Int64:
			if len(buf) < 8 {
				return nil, fmt.Errorf("%w: truncated int64 column %q", ErrCorruptTuple, c.Name)
			}
			t[i] = int64(binary.LittleEndian.Uint64(buf))
			buf = buf[8:]
		case Float64:
			if len(buf) < 8 {
				return nil, fmt.Errorf("%w: truncated float64 column %q", ErrCorruptTuple, c.Name)
			}
			t[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
			buf = buf[8:]
		case String:
			if len(buf) < 2 {
				return nil, fmt.Errorf("%w: truncated string header %q", ErrCorruptTuple, c.Name)
			}
			n := int(binary.LittleEndian.Uint16(buf))
			buf = buf[2:]
			if len(buf) < n {
				return nil, fmt.Errorf("%w: truncated string column %q", ErrCorruptTuple, c.Name)
			}
			t[i] = string(buf[:n])
			buf = buf[n:]
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptTuple, len(buf))
	}
	return t, nil
}

// Layout checks an encoded tuple as Decode does — every column whole,
// nothing trailing — without decoding it, and appends to dst the offset
// at which each column's encoding starts, then the tuple's length:
// column i is tuple[offs[i]:offs[i+1]].
func (s Schema) Layout(tuple []byte, dst []int) ([]int, error) {
	off := 0
	for _, c := range s {
		dst = append(dst, off)
		n := 8
		if !c.Type.Fixed() {
			if len(tuple) < off+2 {
				return nil, fmt.Errorf("%w: truncated string header %q", ErrCorruptTuple, c.Name)
			}
			n = 2 + int(binary.LittleEndian.Uint16(tuple[off:]))
		}
		if len(tuple) < off+n {
			return nil, fmt.Errorf("%w: truncated %v column %q", ErrCorruptTuple, c.Type, c.Name)
		}
		off += n
	}
	if off != len(tuple) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptTuple, len(tuple)-off)
	}
	return append(dst, off), nil
}

// Equal reports deep equality of two tuples.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	return append(Tuple(nil), t...)
}
