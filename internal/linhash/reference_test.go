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

// refTable reads the table a Table maintains, the old way, and mutates
// it the old way (below).
type refTable struct {
	pager Pager
	hdrA  addr.EntityAddr
	hash  HashEntry
	match MatchKey
}

func refOf(t *Table) refTable {
	return refTable{pager: t.pager, hdrA: t.hdrA, hash: t.hash, match: t.match}
}

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

// The mutation path as it was before a mutation wrote each component
// once: a split deleted every node of the old chain, cleared both bucket
// heads (a whole directory-chunk image each) and re-inserted the entries
// one at a time, each insert rewriting a whole node image and each new
// chain head another chunk image; a new directory chunk was inserted all
// Nil and then updated. It is kept, unchanged but for reading through
// Pager.Read, as the model the differential test holds Insert and Delete
// to: the same entries in every bucket.

// node is one bucket-chain node, unmarshalled.
type node struct {
	next    addr.EntityAddr
	hashes  []uint64
	entries []uint64
}

func marshalNode(n *node, order int) []byte {
	buf := make([]byte, nodeHeaderSize+16*order)
	binary.LittleEndian.PutUint64(buf[0:], n.next.Pack())
	binary.LittleEndian.PutUint16(buf[8:], uint16(len(n.entries)))
	for i := range n.entries {
		binary.LittleEndian.PutUint64(buf[nodeHeaderSize+16*i:], n.hashes[i])
		binary.LittleEndian.PutUint64(buf[nodeHeaderSize+16*i+8:], n.entries[i])
	}
	return buf
}

func (t refTable) readNode(a addr.EntityAddr) (*node, error) {
	buf, err := t.pager.Read(a)
	if err != nil {
		return nil, err
	}
	return refUnmarshalNode(buf)
}

func (t refTable) writeHeader(h *header) error {
	return t.pager.Update(t.hdrA, marshalHeader(h))
}

func (t refTable) setBucketHead(h *header, b uint32, a addr.EntityAddr) error {
	ci, off := int(b)/chunkEntries, int(b)%chunkEntries
	buf, err := t.pager.Read(h.chunks[ci])
	if err != nil {
		return err
	}
	nb := append([]byte(nil), buf...)
	if len(nb) < 8*(off+1) {
		return fmt.Errorf("linhash: corrupt directory chunk (%d bytes)", len(nb))
	}
	binary.LittleEndian.PutUint64(nb[8*off:], a.Pack())
	return t.pager.Update(h.chunks[ci], nb)
}

func (t refTable) Insert(e uint64) error {
	h, err := t.readHeader()
	if err != nil {
		return err
	}
	hv, err := t.hash(e)
	if err != nil {
		return err
	}
	b := h.bucketIndex(hv)
	if err := t.insertInto(h, b, hv, e); err != nil {
		return err
	}
	h.count++
	if h.count*4 > uint64(h.nbuckets)*uint64(h.order)*3 {
		if err := t.split(h); err != nil {
			return err
		}
	}
	return t.writeHeader(h)
}

func (t refTable) insertInto(h *header, b uint32, hv, e uint64) error {
	head, err := t.bucketHead(h, b)
	if err != nil {
		return err
	}
	for a := head; !a.IsNil(); {
		n, err := t.readNode(a)
		if err != nil {
			return err
		}
		if len(n.entries) < h.order {
			n.hashes = append(n.hashes, hv)
			n.entries = append(n.entries, e)
			return t.pager.Update(a, marshalNode(n, h.order))
		}
		a = n.next
	}
	nn := &node{next: head, hashes: []uint64{hv}, entries: []uint64{e}}
	na, err := t.pager.Insert(marshalNode(nn, h.order))
	if err != nil {
		return err
	}
	return t.setBucketHead(h, b, na)
}

func (t refTable) addBucket(h *header) (uint32, error) {
	b := h.nbuckets
	ci := int(b) / chunkEntries
	if ci >= len(h.chunks) {
		chunk := make([]byte, 8*chunkEntries)
		for i := 0; i < chunkEntries; i++ {
			binary.LittleEndian.PutUint64(chunk[8*i:], addr.Nil.Pack())
		}
		ca, err := t.pager.Insert(chunk)
		if err != nil {
			return 0, err
		}
		h.chunks = append(h.chunks, ca)
	}
	h.nbuckets++
	return b, nil
}

func (t refTable) split(h *header) error {
	oldB := h.next
	newB, err := t.addBucket(h)
	if err != nil {
		return err
	}
	head, err := t.bucketHead(h, oldB)
	if err != nil {
		return err
	}
	var hvs, es []uint64
	var nodes []addr.EntityAddr
	for a := head; !a.IsNil(); {
		n, err := t.readNode(a)
		if err != nil {
			return err
		}
		hvs = append(hvs, n.hashes...)
		es = append(es, n.entries...)
		nodes = append(nodes, a)
		a = n.next
	}
	h.next++
	if h.next == 1<<h.level {
		h.level++
		h.next = 0
	}
	for _, a := range nodes {
		if err := t.pager.Delete(a); err != nil {
			return err
		}
	}
	if err := t.setBucketHead(h, oldB, addr.Nil); err != nil {
		return err
	}
	if err := t.setBucketHead(h, newB, addr.Nil); err != nil {
		return err
	}
	for i := range es {
		b := h.bucketIndex(hvs[i])
		if b != oldB && b != newB {
			return fmt.Errorf("linhash: split redistribution sent hash %x to bucket %d (split %d/%d)", hvs[i], b, oldB, newB)
		}
		if err := t.insertInto(h, b, hvs[i], es[i]); err != nil {
			return err
		}
	}
	return nil
}

func (t refTable) Delete(e uint64) error {
	h, err := t.readHeader()
	if err != nil {
		return err
	}
	hv, err := t.hash(e)
	if err != nil {
		return err
	}
	b := h.bucketIndex(hv)
	head, err := t.bucketHead(h, b)
	if err != nil {
		return err
	}
	var prev addr.EntityAddr
	var prevNode *node
	for a := head; !a.IsNil(); {
		n, err := t.readNode(a)
		if err != nil {
			return err
		}
		for i, x := range n.entries {
			if x != e {
				continue
			}
			n.hashes = append(n.hashes[:i], n.hashes[i+1:]...)
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
			if len(n.entries) == 0 {
				if prevNode == nil {
					if err := t.setBucketHead(h, b, n.next); err != nil {
						return err
					}
				} else {
					prevNode.next = n.next
					if err := t.pager.Update(prev, marshalNode(prevNode, h.order)); err != nil {
						return err
					}
				}
				if err := t.pager.Delete(a); err != nil {
					return err
				}
			} else if err := t.pager.Update(a, marshalNode(n, h.order)); err != nil {
				return err
			}
			h.count--
			return t.writeHeader(h)
		}
		prev, prevNode = a, n
		a = n.next
	}
	return ErrNotFound
}
