package linhash

import (
	"encoding/binary"
	"fmt"

	"mmdb/internal/addr"
)

// The read path as it was before look-ups read the table where it lies:
// the header unmarshalled (chunk list and all) per operation, the whole
// 1 KB directory chunk copied to read one word of it, every chain node
// copied and unmarshalled into fresh slices. It is kept, unchanged, as the
// model the differential tests hold Lookup and Scan to: same entries, same
// order, same errors.

func refUnmarshalNode(buf []byte) (*node, error) {
	if len(buf) < nodeHeaderSize {
		return nil, fmt.Errorf("linhash: corrupt node (%d bytes)", len(buf))
	}
	n := &node{next: addr.Unpack(binary.LittleEndian.Uint64(buf[0:]))}
	count := int(binary.LittleEndian.Uint16(buf[8:]))
	if len(buf) < nodeHeaderSize+16*count {
		return nil, fmt.Errorf("linhash: corrupt node entries")
	}
	n.hashes = make([]uint64, count)
	n.entries = make([]uint64, count)
	for i := 0; i < count; i++ {
		n.hashes[i] = binary.LittleEndian.Uint64(buf[nodeHeaderSize+16*i:])
		n.entries[i] = binary.LittleEndian.Uint64(buf[nodeHeaderSize+16*i+8:])
	}
	return n, nil
}

func refUnmarshalHeader(buf []byte) (*header, error) {
	if len(buf) < hdrFixed {
		return nil, fmt.Errorf("linhash: corrupt header")
	}
	h := &header{
		level:    binary.LittleEndian.Uint32(buf[0:]),
		next:     binary.LittleEndian.Uint32(buf[4:]),
		count:    binary.LittleEndian.Uint64(buf[8:]),
		order:    int(binary.LittleEndian.Uint16(buf[16:])),
		nbuckets: binary.LittleEndian.Uint32(buf[18:]),
	}
	nchunks := int(binary.LittleEndian.Uint32(buf[22:]))
	if len(buf) < hdrFixed+8*nchunks {
		return nil, fmt.Errorf("linhash: corrupt header chunks")
	}
	for i := 0; i < nchunks; i++ {
		h.chunks = append(h.chunks, addr.Unpack(binary.LittleEndian.Uint64(buf[hdrFixed+8*i:])))
	}
	return h, nil
}

// refTable reads the table a Table maintains, the old way.
type refTable struct {
	pager Pager
	hdrA  addr.EntityAddr
	match MatchKey
}

func refOf(t *Table) refTable { return refTable{pager: t.pager, hdrA: t.hdrA, match: t.match} }

func (t refTable) readHeader() (*header, error) {
	buf, err := t.pager.Read(t.hdrA)
	if err != nil {
		return nil, err
	}
	return refUnmarshalHeader(buf)
}

func (t refTable) bucketHead(h *header, b uint32) (addr.EntityAddr, error) {
	ci, off := int(b)/chunkEntries, int(b)%chunkEntries
	if ci >= len(h.chunks) {
		return addr.Nil, fmt.Errorf("linhash: bucket %d beyond directory", b)
	}
	buf, err := t.pager.Read(h.chunks[ci])
	if err != nil {
		return addr.Nil, err
	}
	return addr.Unpack(binary.LittleEndian.Uint64(buf[8*off:])), nil
}

func (t refTable) Lookup(key any, keyHash uint64, fn func(entry uint64) bool) error {
	h, err := t.readHeader()
	if err != nil {
		return err
	}
	b := h.bucketIndex(keyHash)
	head, err := t.bucketHead(h, b)
	if err != nil {
		return err
	}
	for a := head; !a.IsNil(); {
		buf, err := t.pager.Read(a)
		if err != nil {
			return err
		}
		n, err := refUnmarshalNode(buf)
		if err != nil {
			return err
		}
		for i, hv := range n.hashes {
			if hv != keyHash {
				continue
			}
			ok, err := t.match(key, n.entries[i])
			if err != nil {
				return err
			}
			if ok && !fn(n.entries[i]) {
				return nil
			}
		}
		a = n.next
	}
	return nil
}

func (t refTable) Scan(fn func(entry uint64) bool) error {
	h, err := t.readHeader()
	if err != nil {
		return err
	}
	for b := uint32(0); b < h.nbuckets; b++ {
		head, err := t.bucketHead(h, b)
		if err != nil {
			return err
		}
		for a := head; !a.IsNil(); {
			buf, err := t.pager.Read(a)
			if err != nil {
				return err
			}
			n, err := refUnmarshalNode(buf)
			if err != nil {
				return err
			}
			for _, e := range n.entries {
				if !fn(e) {
					return nil
				}
			}
			a = n.next
		}
	}
	return nil
}
