// Package linhash implements the Modified Linear Hash index of
// [Lehman 86c], the hash-based index companion to the T-Tree in the
// MM-DBMS. Like T-Tree nodes, hash nodes are "index components": fixed
// fan-out entities living in index-segment partitions, mutated through
// a logging Pager, so every component update is one REDO log record
// (§2.3.2). A mutation writes each component it touches once, with its
// final image: a split rebuilds both chains in memory over the old
// chain's nodes, and every directory chunk and the header are written
// after the chains, once each.
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
	"slices"
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

// A bucket-chain node is its successor's address (8 bytes), its entry
// count (2) and room for order (hash, entry) pairs of two 8-byte words;
// the words past the count are zero.
const nodeHeaderSize = 8 + 2

// nodeImage returns the image of a node linked to next and holding pairs,
// flat (hash, entry) words. It is the only writer of the node layout.
func nodeImage(next addr.EntityAddr, pairs []uint64, order int) []byte {
	buf := make([]byte, nodeHeaderSize+16*max(order, len(pairs)/2))
	binary.LittleEndian.PutUint64(buf[0:], next.Pack())
	binary.LittleEndian.PutUint16(buf[8:], uint16(len(pairs)/2))
	for i, w := range pairs {
		binary.LittleEndian.PutUint64(buf[nodeHeaderSize+8*i:], w)
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
	ca, err := p.Insert(newChunk())
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

// newChunk returns the image of a directory chunk of Nil heads.
func newChunk() []byte {
	chunk := make([]byte, 8*chunkEntries)
	for i := 0; i < chunkEntries; i++ {
		binary.LittleEndian.PutUint64(chunk[8*i:], addr.Nil.Pack())
	}
	return chunk
}

// edit is one mutation's working set, as the T-Tree's view is: the
// header it rewrites and the bucket heads it sets, so that flush writes
// each directory chunk once, with its final content, and the header
// last. The chain nodes a mutation touches are written where it touches
// them, once each.
type edit struct {
	t     *Table
	h     *header
	heads []headSet // at most one per bucket
}

// headSet is a bucket head a mutation has set.
type headSet struct {
	b    uint32
	head addr.EntityAddr
}

func (t *Table) begin() (edit, error) {
	h, err := t.readHeader()
	return edit{t: t, h: h}, err
}

// head returns bucket b's chain head as the mutation has left it.
func (m *edit) head(b uint32) (addr.EntityAddr, error) {
	for _, s := range m.heads {
		if s.b == b {
			return s.head, nil
		}
	}
	ci := int(b) / chunkEntries
	if ci >= len(m.h.chunks) {
		return addr.Nil, fmt.Errorf("linhash: bucket %d beyond directory", b)
	}
	return m.t.chunkHead(m.h.chunks[ci], b)
}

func (m *edit) setHead(b uint32, a addr.EntityAddr) {
	for i := range m.heads {
		if m.heads[i].b == b {
			m.heads[i].head = a
			return
		}
	}
	m.heads = append(m.heads, headSet{b, a})
}

// flush writes each existing directory chunk whose words the set heads
// change, once; inserts the chunk a split's new bucket opened, with its
// heads set; and writes the header.
func (m *edit) flush() error {
	old := len(m.h.chunks)
	for i, s := range m.heads {
		ci := int(s.b) / chunkEntries
		if ci >= old || slices.ContainsFunc(m.heads[:i], func(p headSet) bool { return int(p.b)/chunkEntries == ci }) {
			continue // the opened chunk, or written for an earlier head
		}
		a := m.h.chunks[ci]
		buf, held, err := m.t.src.Lend(a)
		if err != nil {
			return err
		}
		img := append([]byte(nil), buf...)
		held.Unlock()
		if changed, err := putHeads(img, ci, m.heads); err != nil {
			return err
		} else if changed {
			if err := m.t.pager.Update(a, img); err != nil {
				return err
			}
		}
	}
	if int(m.h.nbuckets) > chunkEntries*old {
		img := newChunk()
		if _, err := putHeads(img, old, m.heads); err != nil {
			return err
		}
		ca, err := m.t.pager.Insert(img)
		if err != nil {
			return err
		}
		m.h.chunks = append(m.h.chunks, ca)
	}
	return m.t.writeHeader(m.h)
}

// putHeads writes into img, the image of directory chunk ci, the heads
// that fall in it, and reports whether a word changed.
func putHeads(img []byte, ci int, heads []headSet) (changed bool, err error) {
	for _, s := range heads {
		if int(s.b)/chunkEntries != ci {
			continue
		}
		off := 8 * (int(s.b) % chunkEntries)
		if len(img) < off+8 {
			return false, fmt.Errorf("linhash: corrupt directory chunk (%d bytes)", len(img))
		}
		if w := s.head.Pack(); binary.LittleEndian.Uint64(img[off:]) != w {
			binary.LittleEndian.PutUint64(img[off:], w)
			changed = true
		}
	}
	return changed, nil
}

// Insert adds entry e to the table and splits one bucket if the load
// factor exceeds 3/4 of nominal node capacity.
func (t *Table) Insert(e uint64) error {
	m, err := t.begin()
	if err != nil {
		return err
	}
	hv, err := t.hash(e)
	if err != nil {
		return err
	}
	h := m.h
	b := h.bucketIndex(hv)
	h.count++
	// Load factor check: average entries per bucket vs node capacity.
	switch {
	case h.count*4 <= uint64(h.nbuckets)*uint64(h.order)*3:
		err = m.insertInto(b, hv, e)
	case b == h.next:
		// e's bucket is the one that splits: e is dealt with its entries.
		err = m.split([]uint64{hv, e})
	default:
		if err = m.insertInto(b, hv, e); err == nil {
			err = m.split(nil)
		}
	}
	if err != nil {
		return err
	}
	return m.flush()
}

// insertInto places (hv, e) into bucket b: the first chain node with
// room, else a new node at the chain head.
func (m *edit) insertInto(b uint32, hv, e uint64) error {
	head, err := m.head(b)
	if err != nil {
		return err
	}
	order := m.h.order
	var buf [2 * stackPairs]uint64
	for a := head; !a.IsNil(); {
		next, ps, err := m.t.readPairs(a, &buf)
		if err != nil {
			return err
		}
		if len(ps) < 2*order {
			return m.t.pager.Update(a, nodeImage(next, append(ps, hv, e), order))
		}
		a = next
	}
	na, err := m.t.pager.Insert(nodeImage(head, []uint64{hv, e}, order))
	if err != nil {
		return err
	}
	m.setHead(b, na)
	return nil
}

// split performs one linear-hashing split: the entries of bucket h.next,
// and pair when it is not nil (an entry being inserted that routes
// there), are dealt between h.next and a new bucket by the next hash
// bit. Both chains are built in memory, full nodes first, and written
// over the old chain's nodes: a node is inserted only when they run out,
// and deleted only when one is left over.
func (m *edit) split(pair []uint64) error {
	h := m.h
	oldB, newB := h.next, h.nbuckets
	h.nbuckets++
	head, err := m.head(oldB)
	if err != nil {
		return err
	}
	var olds []addr.EntityAddr
	var pairs []uint64
	var buf [2 * stackPairs]uint64
	for a := head; !a.IsNil(); {
		next, ps, err := m.t.readPairs(a, &buf)
		if err != nil {
			return err
		}
		pairs = append(pairs, ps...)
		olds = append(olds, a)
		a = next
	}
	pairs = append(pairs, pair...)
	// Advance the split pointer before dealing, so that bucketIndex
	// routes with level+1 bits.
	h.next++
	if h.next == 1<<h.level {
		h.level++
		h.next = 0
	}
	lo, hi := pairs[:0], make([]uint64, 0, len(pairs))
	for i := 0; i < len(pairs); i += 2 {
		switch b := h.bucketIndex(pairs[i]); b {
		case oldB:
			lo = append(lo, pairs[i], pairs[i+1])
		case newB:
			hi = append(hi, pairs[i], pairs[i+1])
		default:
			return fmt.Errorf("linhash: split redistribution sent hash %x to bucket %d (split %d/%d)", pairs[i], b, oldB, newB)
		}
	}
	loHead, spare, err := m.build(lo, olds)
	if err != nil {
		return err
	}
	hiHead, spare, err := m.build(hi, spare)
	if err != nil {
		return err
	}
	for _, a := range spare {
		if err := m.t.pager.Delete(a); err != nil {
			return err
		}
	}
	m.setHead(oldB, loHead)
	m.setHead(newB, hiHead)
	return nil
}

// build writes a chain holding pairs, order to a node, full nodes first,
// and returns its head. It writes the tail first, so that each node is
// written once with its successor known: over the nodes of reuse, from
// the front, then inserted. It returns the nodes of reuse it left.
func (m *edit) build(pairs []uint64, reuse []addr.EntityAddr) (head addr.EntityAddr, spare []addr.EntityAddr, err error) {
	per := 2 * m.h.order
	nodes := (len(pairs) + per - 1) / per
	mine := reuse[:min(nodes, len(reuse))]
	head = addr.Nil
	for k := nodes - 1; k >= 0; k-- {
		img := nodeImage(head, pairs[k*per:min((k+1)*per, len(pairs))], m.h.order)
		if k < len(mine) {
			head, err = mine[k], m.t.pager.Update(mine[k], img)
		} else {
			head, err = m.t.pager.Insert(img)
		}
		if err != nil {
			return addr.Nil, nil, err
		}
	}
	return head, reuse[len(mine):], nil
}

// Delete removes entry e; ErrNotFound if absent. The node that held e
// is rewritten without it, or, left empty, unlinked and freed.
func (t *Table) Delete(e uint64) error {
	m, err := t.begin()
	if err != nil {
		return err
	}
	hv, err := t.hash(e)
	if err != nil {
		return err
	}
	b := m.h.bucketIndex(hv)
	head, err := m.head(b)
	if err != nil {
		return err
	}
	var buf [2 * stackPairs]uint64
	prev := addr.Nil
	for a := head; !a.IsNil(); {
		next, ps, err := t.readPairs(a, &buf)
		if err != nil {
			return err
		}
		i := 1
		for i < len(ps) && ps[i] != e {
			i += 2
		}
		if i >= len(ps) {
			prev, a = a, next
			continue
		}
		if len(ps) > 2 {
			err = t.pager.Update(a, nodeImage(next, slices.Delete(ps, i-1, i+1), m.h.order))
		} else {
			err = m.unlink(b, prev, a, next)
		}
		if err != nil {
			return err
		}
		m.h.count--
		return m.flush()
	}
	return ErrNotFound
}

// unlink takes the emptied node a, followed by next, out of bucket b's
// chain, where it follows prev (Nil: a is the head), and frees it.
func (m *edit) unlink(b uint32, prev, a, next addr.EntityAddr) error {
	if prev.IsNil() {
		m.setHead(b, next)
	} else {
		var buf [2 * stackPairs]uint64
		_, ps, err := m.t.readPairs(prev, &buf)
		if err != nil {
			return err
		}
		if err := m.t.pager.Update(prev, nodeImage(next, ps, m.h.order)); err != nil {
			return err
		}
	}
	return m.t.pager.Delete(a)
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
