// Package linhash implements the Modified Linear Hash index of
// [Lehman 86c], the hash-based index companion to the T-Tree in the
// MM-DBMS. Like T-Tree nodes, hash nodes are "index components": fixed
// fan-out entities living in index-segment partitions, mutated through
// a logging Pager so every node update produces one REDO log record
// (§2.3.2).
//
// Structure: a directory of bucket chains, grown one bucket at a time by
// linear hashing's split pointer, so the table expands without global
// rehashing. The directory is itself partition-resident (a header entity
// plus fixed-size chunk entities of bucket heads), making the whole
// index recoverable by REDO replay of its partitions.
package linhash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"mmdb/internal/addr"
)

// Pager is the storage interface the index runs against; implementations
// log REDO records and track undo (see package ttree for the contract).
type Pager interface {
	Read(a addr.EntityAddr) ([]byte, error)
	Insert(data []byte) (addr.EntityAddr, error)
	Update(a addr.EntityAddr, data []byte) error
	Delete(a addr.EntityAddr) error
}

// Lender is the lending form of Pager.Read, with ttree.Lender's contract:
// the table copies out the words it needs and calls held.Unlock() before
// it calls HashEntry, MatchKey or the pager again. It is detected once, at
// Create or Open; any other pager is adapted through Read. (Declared here
// as well as in ttree, adapter included, as Pager is: the two index
// packages share no code.)
type Lender interface {
	Lend(a addr.EntityAddr) (data []byte, held sync.Locker, err error)
}

// copying adapts a Pager that cannot lend: what Read returned is used as
// if lent, and there is no latch to release.
type copying struct{ p Pager }

func (c copying) Lend(a addr.EntityAddr) ([]byte, sync.Locker, error) {
	data, err := c.p.Read(a)
	return data, unlatched{}, err
}

type unlatched struct{}

func (unlatched) Lock()   {}
func (unlatched) Unlock() {}

func lenderOf(p Pager) Lender {
	if l, ok := p.(Lender); ok {
		return l
	}
	return copying{p}
}

// HashEntry hashes a stored entry's key (typically by reading the
// indexed tuple).
type HashEntry func(entry uint64) (uint64, error)

// MatchKey reports whether a stored entry's key equals the search key.
type MatchKey func(key any, entry uint64) (bool, error)

// ErrNotFound is returned by Delete when the entry is absent.
var ErrNotFound = errors.New("linhash: entry not found")

const (
	chunkEntries = 128 // bucket heads per directory chunk
)

// node is one bucket-chain node.
type node struct {
	next    addr.EntityAddr
	hashes  []uint64
	entries []uint64
}

const nodeHeaderSize = 8 + 2

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

// checkNode validates node bytes and returns the entry count: the bounds
// checks every reader of a node relies on.
func checkNode(buf []byte) (int, error) {
	if len(buf) < nodeHeaderSize {
		return 0, fmt.Errorf("linhash: corrupt node (%d bytes)", len(buf))
	}
	count := int(binary.LittleEndian.Uint16(buf[8:]))
	if len(buf) < nodeHeaderSize+16*count {
		return 0, fmt.Errorf("linhash: corrupt node entries")
	}
	return count, nil
}

func unmarshalNode(buf []byte) (*node, error) {
	count, err := checkNode(buf)
	if err != nil {
		return nil, err
	}
	n := &node{
		next:    addr.Unpack(binary.LittleEndian.Uint64(buf[0:])),
		hashes:  make([]uint64, count),
		entries: make([]uint64, count),
	}
	for i := 0; i < count; i++ {
		n.hashes[i] = binary.LittleEndian.Uint64(buf[nodeHeaderSize+16*i:])
		n.entries[i] = binary.LittleEndian.Uint64(buf[nodeHeaderSize+16*i+8:])
	}
	return n, nil
}

// stackPairs is how many (hash, entry) pairs a chain walk holds without
// allocating; a node of a larger order is copied to the heap.
const stackPairs = 64

// readPairs borrows the chain node at a and returns its successor and
// its (hash, entry) pairs, flat, copied into buf when they fit — so the
// caller hashes, matches and reports with nothing latched.
func (t *Table) readPairs(a addr.EntityAddr, buf *[2 * stackPairs]uint64) (next addr.EntityAddr, pairs []uint64, err error) {
	raw, held, err := t.src.Lend(a)
	if err != nil {
		return addr.Nil, nil, err
	}
	defer held.Unlock()
	count, err := checkNode(raw)
	if err != nil {
		return addr.Nil, nil, err
	}
	if pairs = buf[:0]; 2*count > len(buf) {
		pairs = make([]uint64, 0, 2*count)
	}
	for i := 0; i < 2*count; i++ {
		pairs = append(pairs, binary.LittleEndian.Uint64(raw[nodeHeaderSize+8*i:]))
	}
	return addr.Unpack(binary.LittleEndian.Uint64(raw[0:])), pairs, nil
}

// readNode is readPairs for the mutation paths, which rebuild the node.
func (t *Table) readNode(a addr.EntityAddr) (*node, error) {
	raw, held, err := t.src.Lend(a)
	if err != nil {
		return nil, err
	}
	defer held.Unlock()
	return unmarshalNode(raw)
}

// header layout: level(4) next(4) count(8) order(2) nbuckets(4)
// nchunks(4) chunk addrs (8 each).
const hdrFixed = 4 + 4 + 8 + 2 + 4 + 4

type header struct {
	level    uint32
	next     uint32
	count    uint64
	order    int
	nbuckets uint32
	chunks   []addr.EntityAddr
}

func marshalHeader(h *header) []byte {
	buf := make([]byte, hdrFixed+8*len(h.chunks))
	binary.LittleEndian.PutUint32(buf[0:], h.level)
	binary.LittleEndian.PutUint32(buf[4:], h.next)
	binary.LittleEndian.PutUint64(buf[8:], h.count)
	binary.LittleEndian.PutUint16(buf[16:], uint16(h.order))
	binary.LittleEndian.PutUint32(buf[18:], h.nbuckets)
	binary.LittleEndian.PutUint32(buf[22:], uint32(len(h.chunks)))
	for i, c := range h.chunks {
		binary.LittleEndian.PutUint64(buf[hdrFixed+8*i:], c.Pack())
	}
	return buf
}

// parseHeader validates header bytes and returns the fixed fields, with
// the chunk address words left where they are.
func parseHeader(buf []byte) (h header, chunks []byte, err error) {
	if len(buf) < hdrFixed {
		return header{}, nil, fmt.Errorf("linhash: corrupt header")
	}
	h = header{
		level:    binary.LittleEndian.Uint32(buf[0:]),
		next:     binary.LittleEndian.Uint32(buf[4:]),
		count:    binary.LittleEndian.Uint64(buf[8:]),
		order:    int(binary.LittleEndian.Uint16(buf[16:])),
		nbuckets: binary.LittleEndian.Uint32(buf[18:]),
	}
	nchunks := int(binary.LittleEndian.Uint32(buf[22:]))
	if len(buf) < hdrFixed+8*nchunks {
		return header{}, nil, fmt.Errorf("linhash: corrupt header chunks")
	}
	return h, buf[hdrFixed : hdrFixed+8*nchunks], nil
}

func unmarshalHeader(buf []byte) (*header, error) {
	h, chunks, err := parseHeader(buf)
	if err != nil {
		return nil, err
	}
	for ; len(chunks) > 0; chunks = chunks[8:] {
		h.chunks = append(h.chunks, addr.Unpack(binary.LittleEndian.Uint64(chunks)))
	}
	return &h, nil
}

// Table is a Modified Linear Hash index. Mutations must be serialised
// by the caller (index writer lock); reads may run under the latch. A
// Table holds no table state, only where the header is: it may be kept
// and shared by concurrent readers.
type Table struct {
	pager Pager
	src   Lender // every read goes through it
	hdrA  addr.EntityAddr
	hash  HashEntry
	match MatchKey
}

// Create initialises an empty table with the given node fan-out and
// returns it along with its header address.
func Create(p Pager, order int, hash HashEntry, match MatchKey) (*Table, addr.EntityAddr, error) {
	if order < 2 {
		return nil, addr.Nil, errors.New("linhash: order must be >= 2")
	}
	// Two initial buckets (level 1), both empty, in one chunk.
	chunk := make([]byte, 8*chunkEntries)
	for i := 0; i < chunkEntries; i++ {
		binary.LittleEndian.PutUint64(chunk[8*i:], addr.Nil.Pack())
	}
	ca, err := p.Insert(chunk)
	if err != nil {
		return nil, addr.Nil, err
	}
	h := &header{level: 1, next: 0, order: order, nbuckets: 2, chunks: []addr.EntityAddr{ca}}
	ha, err := p.Insert(marshalHeader(h))
	if err != nil {
		return nil, addr.Nil, err
	}
	return &Table{pager: p, src: lenderOf(p), hdrA: ha, hash: hash, match: match}, ha, nil
}

// Open attaches to an existing table via its header address.
func Open(p Pager, hdr addr.EntityAddr, hash HashEntry, match MatchKey) (*Table, error) {
	t := &Table{pager: p, src: lenderOf(p), hdrA: hdr, hash: hash, match: match}
	if _, err := t.peekHeader(); err != nil {
		return nil, err
	}
	return t, nil
}

// Header returns the table's header entity address.
func (t *Table) Header() addr.EntityAddr { return t.hdrA }

// readHeader returns the whole header, chunk list included, for the
// mutation paths that rewrite it.
func (t *Table) readHeader() (*header, error) {
	buf, held, err := t.src.Lend(t.hdrA)
	if err != nil {
		return nil, err
	}
	defer held.Unlock()
	return unmarshalHeader(buf)
}

// peekHeader borrows the header and returns its fixed fields (chunks
// nil).
func (t *Table) peekHeader() (header, error) {
	buf, held, err := t.src.Lend(t.hdrA)
	if err != nil {
		return header{}, err
	}
	defer held.Unlock()
	h, _, err := parseHeader(buf)
	return h, err
}

func (t *Table) writeHeader(h *header) error {
	return t.pager.Update(t.hdrA, marshalHeader(h))
}

// bucketIndex maps a hash to its current bucket per linear hashing.
func (h *header) bucketIndex(hv uint64) uint32 {
	b := uint32(hv) & ((1 << h.level) - 1)
	if b < h.next {
		b = uint32(hv) & ((1 << (h.level + 1)) - 1)
	}
	return b
}

// headOf borrows the header, asks pick for a bucket given its fixed
// fields, and returns that bucket's chain head, read as one directory
// word in place.
func (t *Table) headOf(pick func(h header) uint32) (addr.EntityAddr, error) {
	buf, held, err := t.src.Lend(t.hdrA)
	if err != nil {
		return addr.Nil, err
	}
	h, chunks, err := parseHeader(buf)
	var b uint32
	var chunk addr.EntityAddr
	if err == nil {
		b = pick(h)
		if ci := int(b) / chunkEntries; ci < len(chunks)/8 {
			chunk = addr.Unpack(binary.LittleEndian.Uint64(chunks[8*ci:]))
		} else {
			err = fmt.Errorf("linhash: bucket %d beyond directory", b)
		}
	}
	held.Unlock()
	if err != nil {
		return addr.Nil, err
	}
	return t.chunkHead(chunk, b)
}

// headOfHash returns the chain head of the bucket hash hv routes to.
func (t *Table) headOfHash(hv uint64) (addr.EntityAddr, error) {
	return t.headOf(func(h header) uint32 { return h.bucketIndex(hv) })
}

// headOfBucket returns the chain head of bucket b.
func (t *Table) headOfBucket(b uint32) (addr.EntityAddr, error) {
	return t.headOf(func(header) uint32 { return b })
}

// chunkHead reads bucket b's directory word out of its chunk, in place.
func (t *Table) chunkHead(chunk addr.EntityAddr, b uint32) (addr.EntityAddr, error) {
	buf, held, err := t.src.Lend(chunk)
	if err != nil {
		return addr.Nil, err
	}
	defer held.Unlock()
	off := 8 * (int(b) % chunkEntries)
	if len(buf) < off+8 {
		return addr.Nil, fmt.Errorf("linhash: corrupt directory chunk (%d bytes)", len(buf))
	}
	return addr.Unpack(binary.LittleEndian.Uint64(buf[off:])), nil
}

// bucketHead reads the directory entry for bucket b through the
// unmarshalled header a mutation already holds.
func (t *Table) bucketHead(h *header, b uint32) (addr.EntityAddr, error) {
	ci := int(b) / chunkEntries
	if ci >= len(h.chunks) {
		return addr.Nil, fmt.Errorf("linhash: bucket %d beyond directory", b)
	}
	return t.chunkHead(h.chunks[ci], b)
}

// setBucketHead updates the directory entry for bucket b.
func (t *Table) setBucketHead(h *header, b uint32, a addr.EntityAddr) error {
	ci, off := int(b)/chunkEntries, int(b)%chunkEntries
	buf, held, err := t.src.Lend(h.chunks[ci])
	if err != nil {
		return err
	}
	nb := append([]byte(nil), buf...)
	held.Unlock()
	if len(nb) < 8*(off+1) {
		return fmt.Errorf("linhash: corrupt directory chunk (%d bytes)", len(nb))
	}
	binary.LittleEndian.PutUint64(nb[8*off:], a.Pack())
	return t.pager.Update(h.chunks[ci], nb)
}

// Insert adds entry e to the table and splits one bucket if the load
// factor exceeds 3/4 of nominal node capacity.
func (t *Table) Insert(e uint64) error {
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
	// Load factor check: average entries per bucket vs node capacity.
	if h.count*4 > uint64(h.nbuckets)*uint64(h.order)*3 {
		if err := t.split(h); err != nil {
			return err
		}
	}
	return t.writeHeader(h)
}

// insertInto places (hv, e) into bucket b: first chain node with room,
// else a new node at the chain head.
func (t *Table) insertInto(h *header, b uint32, hv, e uint64) error {
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

// addBucket extends the directory by one bucket (growing a chunk or
// adding one) and returns its index.
func (t *Table) addBucket(h *header) (uint32, error) {
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

// split performs one linear-hashing split: bucket h.next's entries are
// redistributed between h.next and the new bucket by the next hash bit.
func (t *Table) split(h *header) error {
	oldB := h.next
	newB, err := t.addBucket(h)
	if err != nil {
		return err
	}
	// Collect the old chain.
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
	// Advance the split pointer before rebuilding so bucketIndex
	// routes rehashed entries with level+1 bits.
	h.next++
	if h.next == 1<<h.level {
		h.level++
		h.next = 0
	}
	// Free the old chain and clear both heads.
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
	// Redistribute.
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

// Delete removes entry e; ErrNotFound if absent.
func (t *Table) Delete(e uint64) error {
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
				// Unlink the empty node.
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

// Lookup calls fn for every entry whose key matches, stopping early if
// fn returns false.
func (t *Table) Lookup(key any, keyHash uint64, fn func(entry uint64) bool) error {
	a, err := t.headOfHash(keyHash)
	if err != nil {
		return err
	}
	var buf [2 * stackPairs]uint64
	for !a.IsNil() {
		next, pairs, err := t.readPairs(a, &buf)
		if err != nil {
			return err
		}
		for i := 0; i < len(pairs); i += 2 {
			if pairs[i] != keyHash {
				continue
			}
			ok, err := t.match(key, pairs[i+1])
			if err != nil {
				return err
			}
			if ok && !fn(pairs[i+1]) {
				return nil
			}
		}
		a = next
	}
	return nil
}

// Count returns the number of entries.
func (t *Table) Count() (uint64, error) {
	h, err := t.peekHeader()
	return h.count, err
}

// Buckets returns the current bucket count (for load-factor tests).
func (t *Table) Buckets() (uint32, error) {
	h, err := t.peekHeader()
	return h.nbuckets, err
}

// Scan calls fn for every entry in the table, in arbitrary order.
func (t *Table) Scan(fn func(entry uint64) bool) error {
	h, err := t.peekHeader()
	if err != nil {
		return err
	}
	var buf [2 * stackPairs]uint64
	for b := uint32(0); b < h.nbuckets; b++ {
		a, err := t.headOfBucket(b)
		if err != nil {
			return err
		}
		for !a.IsNil() {
			next, pairs, err := t.readPairs(a, &buf)
			if err != nil {
				return err
			}
			for i := 1; i < len(pairs); i += 2 {
				if !fn(pairs[i]) {
					return nil
				}
			}
			a = next
		}
	}
	return nil
}

// Check verifies structural invariants: every entry is in the bucket
// its stored hash routes to, the stored hash is the one the entry's key
// hashes to now (when the table has a HashEntry: a stale or rotted hash
// word leaves the row unreachable by key), node fill is within bounds,
// and the header count matches.
func (t *Table) Check() error {
	h, err := t.peekHeader()
	if err != nil {
		return err
	}
	var total uint64
	var buf [2 * stackPairs]uint64
	for b := uint32(0); b < h.nbuckets; b++ {
		a, err := t.headOfBucket(b)
		if err != nil {
			return err
		}
		for !a.IsNil() {
			next, pairs, err := t.readPairs(a, &buf)
			if err != nil {
				return err
			}
			if len(pairs) == 0 {
				return fmt.Errorf("linhash: empty node in bucket %d", b)
			}
			if len(pairs)/2 > h.order {
				return fmt.Errorf("linhash: overfull node in bucket %d", b)
			}
			for i := 0; i < len(pairs); i += 2 {
				hv, e := pairs[i], pairs[i+1]
				if got := h.bucketIndex(hv); got != b {
					return fmt.Errorf("linhash: entry %x in bucket %d, routes to %d", e, b, got)
				}
				if t.hash == nil {
					continue
				}
				now, err := t.hash(e)
				if err != nil {
					return err
				}
				if now != hv {
					return fmt.Errorf("linhash: entry %x in bucket %d stores hash %x, its key hashes to %x", e, b, hv, now)
				}
			}
			total += uint64(len(pairs) / 2)
			a = next
		}
	}
	if total != h.count {
		return fmt.Errorf("linhash: header count %d != walked %d", h.count, total)
	}
	return nil
}
