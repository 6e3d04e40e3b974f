package ttree

import (
	"encoding/binary"
	"fmt"

	"mmdb/internal/addr"
)

// The read path as it was before searches read nodes where they lie:
// every node copied out through Pager.Read and unmarshalled into fresh
// slices, the scan comparing the bounds with every entry of a node it
// passes. It is kept, unchanged, as the model the differential tests hold
// Search and Range to: same entries, same order, same errors.

func refUnmarshalNode(buf []byte) (*node, error) {
	if len(buf) < nodeHeaderSize {
		return nil, fmt.Errorf("ttree: corrupt node (%d bytes)", len(buf))
	}
	n := &node{
		left:   addr.Unpack(binary.LittleEndian.Uint64(buf[0:])),
		right:  addr.Unpack(binary.LittleEndian.Uint64(buf[8:])),
		height: int16(binary.LittleEndian.Uint16(buf[16:])),
	}
	count := int(binary.LittleEndian.Uint16(buf[18:]))
	if len(buf) < nodeHeaderSize+8*count {
		return nil, fmt.Errorf("ttree: corrupt node entries (%d of %d)", len(buf)-nodeHeaderSize, 8*count)
	}
	n.entries = make([]uint64, count)
	for i := range n.entries {
		n.entries[i] = binary.LittleEndian.Uint64(buf[nodeHeaderSize+8*i:])
	}
	return n, nil
}

// refTree reads the tree a Tree maintains, the old way.
type refTree struct {
	pager  Pager
	header addr.EntityAddr
	cmpK   CompareKey
}

func refOf(t *Tree) refTree { return refTree{pager: t.pager, header: t.header, cmpK: t.cmpK} }

func (t refTree) Range(lo, hi any, fn func(entry uint64) bool) error {
	buf, err := t.pager.Read(t.header)
	if err != nil {
		return err
	}
	_, err = t.scan(addr.Unpack(binary.LittleEndian.Uint64(buf[0:])), lo, hi, fn)
	return err
}

func (t refTree) scan(a addr.EntityAddr, lo, hi any, fn func(uint64) bool) (bool, error) {
	if a.IsNil() {
		return true, nil
	}
	buf, err := t.pager.Read(a)
	if err != nil {
		return false, err
	}
	n, err := refUnmarshalNode(buf)
	if err != nil {
		return false, err
	}
	goLeft := true
	if lo != nil {
		c, err := t.cmpK(lo, n.entries[0])
		if err != nil {
			return false, err
		}
		// Descend when lo <= node min: duplicates of the minimum key
		// may extend into the left subtree.
		goLeft = c <= 0
	}
	if goLeft {
		cont, err := t.scan(n.left, lo, hi, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	for _, e := range n.entries {
		if lo != nil {
			c, err := t.cmpK(lo, e)
			if err != nil {
				return false, err
			}
			if c > 0 {
				continue
			}
		}
		if hi != nil {
			c, err := t.cmpK(hi, e)
			if err != nil {
				return false, err
			}
			if c < 0 {
				return false, nil
			}
		}
		if !fn(e) {
			return false, nil
		}
	}
	goRight := true
	if hi != nil {
		c, err := t.cmpK(hi, n.entries[len(n.entries)-1])
		if err != nil {
			return false, err
		}
		// Descend when hi >= node max: duplicates of the maximum key
		// may extend into the right subtree.
		goRight = c >= 0
	}
	if goRight {
		return t.scan(n.right, lo, hi, fn)
	}
	return true, nil
}
