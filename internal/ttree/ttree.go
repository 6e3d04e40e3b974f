// Package ttree implements the T-Tree index of Lehman & Carey's
// MM-DBMS ([Lehman 86c]), the index structure whose nodes are the
// "index components" that §2.3.2's index log records refer to. A T-Tree
// is an AVL-balanced binary tree whose nodes each hold an ordered array
// of entries; entries are packed entity addresses of relation tuples,
// and comparisons read the indexed tuple (the classic main-memory
// design: the index stores pointers, not keys).
//
// Nodes are entities: fixed-size byte records living in index-segment
// partitions, manipulated through a Pager that the transaction layer
// implements with REDO logging and undo tracking. A single index update
// therefore produces one log record per updated node, exactly as the
// paper describes.
package ttree

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"mmdb/internal/addr"
)

// Pager is the storage interface the tree runs against. Implementations
// perform the physical mutation and handle REDO logging and undo.
type Pager interface {
	// Read returns the entity's bytes. The tree keeps nothing of them
	// past its next call into the pager, so a pager may return a copy
	// (the transaction layer's do) or its own storage (a single-threaded
	// pager over memory).
	Read(a addr.EntityAddr) ([]byte, error)
	// Insert stores a new entity and returns its address.
	Insert(data []byte) (addr.EntityAddr, error)
	// Update replaces the entity's bytes.
	Update(a addr.EntityAddr, data []byte) error
	// Delete removes the entity.
	Delete(a addr.EntityAddr) error
}

// Lender is the lending form of Pager.Read, for pagers whose entities lie
// under a latch. A pager that implements it is detected once, at Create
// or Open, and every read of the tree then borrows instead of copying;
// any other pager is adapted through Read, so there is one traversal.
type Lender interface {
	// Lend returns the entity's bytes where they lie and, held, the
	// latch that keeps them there. The tree copies out the words it
	// needs and calls held.Unlock() before it calls a comparator or the
	// pager again: a comparator reads tuples, which may demand — and so
	// recover — another partition, and that must not happen under a
	// latch. On error nothing is held.
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

// CompareEntries totally orders two stored entries (packed tuple
// addresses): first by indexed key value, tie-broken by address so that
// duplicates are distinguishable.
type CompareEntries func(a, b uint64) (int, error)

// CompareKey orders a search key against a stored entry by key value
// only (duplicates compare equal).
type CompareKey func(key any, entry uint64) (int, error)

// ErrNotFound is returned by Delete when the entry is absent.
var ErrNotFound = errors.New("ttree: entry not found")

// node is the in-memory form of a T-Tree node entity.
type node struct {
	left, right addr.EntityAddr
	height      int16
	entries     []uint64
}

const nodeHeaderSize = 8 + 8 + 2 + 2 // left, right, height, count

func marshalNode(n *node, order int) []byte {
	buf := make([]byte, nodeHeaderSize+8*order)
	binary.LittleEndian.PutUint64(buf[0:], n.left.Pack())
	binary.LittleEndian.PutUint64(buf[8:], n.right.Pack())
	binary.LittleEndian.PutUint16(buf[16:], uint16(n.height))
	binary.LittleEndian.PutUint16(buf[18:], uint16(len(n.entries)))
	for i, e := range n.entries {
		binary.LittleEndian.PutUint64(buf[nodeHeaderSize+8*i:], e)
	}
	return buf
}

// stackEntries is how many entries a traversal frame holds without
// allocating; a node of a larger order is copied to the heap.
const stackEntries = 64

// parseNode validates node bytes and copies the node out of them, the
// entries into buf when they fit (nil: always a fresh slice).
func parseNode(raw []byte, buf *[stackEntries]uint64) (node, error) {
	if len(raw) < nodeHeaderSize {
		return node{}, fmt.Errorf("ttree: corrupt node (%d bytes)", len(raw))
	}
	count := int(binary.LittleEndian.Uint16(raw[18:]))
	if len(raw) < nodeHeaderSize+8*count {
		return node{}, fmt.Errorf("ttree: corrupt node entries (%d of %d)", len(raw)-nodeHeaderSize, 8*count)
	}
	n := node{
		left:   addr.Unpack(binary.LittleEndian.Uint64(raw[0:])),
		right:  addr.Unpack(binary.LittleEndian.Uint64(raw[8:])),
		height: int16(binary.LittleEndian.Uint16(raw[16:])),
	}
	if buf != nil && count <= len(buf) {
		n.entries = buf[:count]
	} else {
		n.entries = make([]uint64, count)
	}
	for i := range n.entries {
		n.entries[i] = binary.LittleEndian.Uint64(raw[nodeHeaderSize+8*i:])
	}
	return n, nil
}

// readNode borrows the node at a and returns it by value, unlatched.
func (t *Tree) readNode(a addr.EntityAddr, buf *[stackEntries]uint64) (node, error) {
	raw, held, err := t.src.Lend(a)
	if err != nil {
		return node{}, err
	}
	n, err := parseNode(raw, buf)
	held.Unlock()
	return n, err
}

// headerSize is the tree header entity: root(8) count(8) order(2).
const headerSize = 8 + 8 + 2

// Tree is a T-Tree rooted at a header entity. All mutating calls must
// be serialised by the caller (the transaction layer holds the index
// writer lock until commit; readers hold the index latch). A Tree holds
// no tree state, only where the header is: it may be kept and shared by
// concurrent readers.
type Tree struct {
	pager  Pager
	src    Lender // every read goes through it
	header addr.EntityAddr
	order  int
	cmpE   CompareEntries
	cmpK   CompareKey
}

// Create initialises a new empty tree, storing its header through the
// pager, and returns the tree and the header's address.
func Create(p Pager, order int, cmpE CompareEntries, cmpK CompareKey) (*Tree, addr.EntityAddr, error) {
	if order < 2 {
		return nil, addr.Nil, errors.New("ttree: order must be >= 2")
	}
	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint64(hdr[0:], addr.Nil.Pack())
	binary.LittleEndian.PutUint64(hdr[8:], 0)
	binary.LittleEndian.PutUint16(hdr[16:], uint16(order))
	ha, err := p.Insert(hdr)
	if err != nil {
		return nil, addr.Nil, err
	}
	return &Tree{pager: p, src: lenderOf(p), header: ha, order: order, cmpE: cmpE, cmpK: cmpK}, ha, nil
}

// Open attaches to an existing tree via its header address.
func Open(p Pager, header addr.EntityAddr, cmpE CompareEntries, cmpK CompareKey) (*Tree, error) {
	t := &Tree{pager: p, src: lenderOf(p), header: header, cmpE: cmpE, cmpK: cmpK}
	_, _, order, err := t.readHeader()
	if err != nil {
		return nil, err
	}
	t.order = order
	return t, nil
}

// readHeader borrows the header entity and returns its fields.
func (t *Tree) readHeader() (root addr.EntityAddr, count uint64, order int, err error) {
	buf, held, err := t.src.Lend(t.header)
	if err != nil {
		return addr.Nil, 0, 0, err
	}
	defer held.Unlock()
	if len(buf) < headerSize {
		return addr.Nil, 0, 0, fmt.Errorf("ttree: corrupt header at %v", t.header)
	}
	order = int(binary.LittleEndian.Uint16(buf[16:]))
	if order < 2 {
		return addr.Nil, 0, 0, fmt.Errorf("ttree: corrupt header order %d", order)
	}
	return addr.Unpack(binary.LittleEndian.Uint64(buf[0:])), binary.LittleEndian.Uint64(buf[8:]), order, nil
}

// view is the working set of one mutation: the nodes it has touched, so
// that each is written back at most once.
type view struct {
	t      *Tree
	nodes  map[addr.EntityAddr]*node
	dirty  map[addr.EntityAddr]bool
	root   addr.EntityAddr
	count  uint64
	hdrMod bool
}

func (t *Tree) newView() (*view, error) {
	root, count, _, err := t.readHeader()
	if err != nil {
		return nil, err
	}
	return &view{
		t:     t,
		nodes: make(map[addr.EntityAddr]*node),
		dirty: make(map[addr.EntityAddr]bool),
		root:  root,
		count: count,
	}, nil
}

func (v *view) get(a addr.EntityAddr) (*node, error) {
	if n, ok := v.nodes[a]; ok {
		return n, nil
	}
	n, err := v.t.readNode(a, nil)
	if err != nil {
		return nil, err
	}
	v.nodes[a] = &n
	return &n, nil
}

func (v *view) mark(a addr.EntityAddr) { v.dirty[a] = true }

func (v *view) create(n *node) (addr.EntityAddr, error) {
	a, err := v.t.pager.Insert(marshalNode(n, v.t.order))
	if err != nil {
		return addr.Nil, err
	}
	v.nodes[a] = n
	return a, nil
}

func (v *view) free(a addr.EntityAddr) error {
	delete(v.nodes, a)
	delete(v.dirty, a)
	return v.t.pager.Delete(a)
}

// flush writes every dirty node and, if changed, the header. Nodes go
// in address order, so one schedule logs the same records in the same
// order every time it runs.
func (v *view) flush() error {
	dirty := make([]addr.EntityAddr, 0, len(v.dirty))
	for a := range v.dirty {
		if _, ok := v.nodes[a]; ok { // else freed after being dirtied
			dirty = append(dirty, a)
		}
	}
	slices.SortFunc(dirty, func(a, b addr.EntityAddr) int { return cmp.Compare(a.Pack(), b.Pack()) })
	for _, a := range dirty {
		if err := v.t.pager.Update(a, marshalNode(v.nodes[a], v.t.order)); err != nil {
			return err
		}
	}
	if v.hdrMod {
		hdr := make([]byte, headerSize)
		binary.LittleEndian.PutUint64(hdr[0:], v.root.Pack())
		binary.LittleEndian.PutUint64(hdr[8:], v.count)
		binary.LittleEndian.PutUint16(hdr[16:], uint16(v.t.order))
		if err := v.t.pager.Update(v.t.header, hdr); err != nil {
			return err
		}
	}
	return nil
}

func (v *view) heightOf(a addr.EntityAddr) (int16, error) {
	if a.IsNil() {
		return 0, nil
	}
	n, err := v.get(a)
	if err != nil {
		return 0, err
	}
	return n.height, nil
}

func (v *view) fixHeight(a addr.EntityAddr, n *node) (int16, error) {
	lh, err := v.heightOf(n.left)
	if err != nil {
		return 0, err
	}
	rh, err := v.heightOf(n.right)
	if err != nil {
		return 0, err
	}
	h := lh
	if rh > h {
		h = rh
	}
	h++
	if h != n.height {
		n.height = h
		v.mark(a)
	}
	return h, nil
}

// rebalance applies AVL rotations at a if needed and returns the
// (possibly new) subtree root.
func (v *view) rebalance(a addr.EntityAddr) (addr.EntityAddr, error) {
	n, err := v.get(a)
	if err != nil {
		return addr.Nil, err
	}
	lh, err := v.heightOf(n.left)
	if err != nil {
		return addr.Nil, err
	}
	rh, err := v.heightOf(n.right)
	if err != nil {
		return addr.Nil, err
	}
	switch {
	case lh-rh > 1:
		l, err := v.get(n.left)
		if err != nil {
			return addr.Nil, err
		}
		llh, err := v.heightOf(l.left)
		if err != nil {
			return addr.Nil, err
		}
		lrh, err := v.heightOf(l.right)
		if err != nil {
			return addr.Nil, err
		}
		if lrh > llh {
			nl, err := v.rotateLeft(n.left)
			if err != nil {
				return addr.Nil, err
			}
			n.left = nl
			v.mark(a)
		}
		return v.rotateRight(a)
	case rh-lh > 1:
		r, err := v.get(n.right)
		if err != nil {
			return addr.Nil, err
		}
		rlh, err := v.heightOf(r.left)
		if err != nil {
			return addr.Nil, err
		}
		rrh, err := v.heightOf(r.right)
		if err != nil {
			return addr.Nil, err
		}
		if rlh > rrh {
			nr, err := v.rotateRight(n.right)
			if err != nil {
				return addr.Nil, err
			}
			n.right = nr
			v.mark(a)
		}
		return v.rotateLeft(a)
	default:
		if _, err := v.fixHeight(a, n); err != nil {
			return addr.Nil, err
		}
		return a, nil
	}
}

func (v *view) rotateRight(a addr.EntityAddr) (addr.EntityAddr, error) {
	n, err := v.get(a)
	if err != nil {
		return addr.Nil, err
	}
	la := n.left
	l, err := v.get(la)
	if err != nil {
		return addr.Nil, err
	}
	n.left = l.right
	l.right = a
	v.mark(a)
	v.mark(la)
	if _, err := v.fixHeight(a, n); err != nil {
		return addr.Nil, err
	}
	if _, err := v.fixHeight(la, l); err != nil {
		return addr.Nil, err
	}
	return la, nil
}

func (v *view) rotateLeft(a addr.EntityAddr) (addr.EntityAddr, error) {
	n, err := v.get(a)
	if err != nil {
		return addr.Nil, err
	}
	ra := n.right
	r, err := v.get(ra)
	if err != nil {
		return addr.Nil, err
	}
	n.right = r.left
	r.left = a
	v.mark(a)
	v.mark(ra)
	if _, err := v.fixHeight(a, n); err != nil {
		return addr.Nil, err
	}
	if _, err := v.fixHeight(ra, r); err != nil {
		return addr.Nil, err
	}
	return ra, nil
}

// insertSorted places e into n's ordered entry array.
func (v *view) insertSorted(a addr.EntityAddr, n *node, e uint64) error {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		c, err := v.t.cmpE(e, n.entries[mid])
		if err != nil {
			return err
		}
		if c < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	n.entries = append(n.entries, 0)
	copy(n.entries[lo+1:], n.entries[lo:])
	n.entries[lo] = e
	v.mark(a)
	return nil
}

// Insert adds entry e (a packed tuple address) to the tree.
func (t *Tree) Insert(e uint64) error {
	v, err := t.newView()
	if err != nil {
		return err
	}
	nr, err := v.insert(v.root, e)
	if err != nil {
		return err
	}
	if nr != v.root {
		v.root = nr
	}
	v.count++
	v.hdrMod = true
	return v.flush()
}

func (v *view) insert(a addr.EntityAddr, e uint64) (addr.EntityAddr, error) {
	if a.IsNil() {
		return v.create(&node{height: 1, entries: []uint64{e}})
	}
	n, err := v.get(a)
	if err != nil {
		return addr.Nil, err
	}
	cmin, err := v.t.cmpE(e, n.entries[0])
	if err != nil {
		return addr.Nil, err
	}
	cmax, err := v.t.cmpE(e, n.entries[len(n.entries)-1])
	if err != nil {
		return addr.Nil, err
	}
	switch {
	case cmin < 0 && !n.left.IsNil():
		nl, err := v.insert(n.left, e)
		if err != nil {
			return addr.Nil, err
		}
		if nl != n.left {
			n.left = nl
			v.mark(a)
		}
	case cmax > 0 && !n.right.IsNil():
		nr, err := v.insert(n.right, e)
		if err != nil {
			return addr.Nil, err
		}
		if nr != n.right {
			n.right = nr
			v.mark(a)
		}
	default:
		// This node bounds e, or it is the last node on the search
		// path (missing child on e's side).
		if len(n.entries) < v.t.order {
			if err := v.insertSorted(a, n, e); err != nil {
				return addr.Nil, err
			}
			return a, nil // no height change
		}
		// Node full. Per the T-Tree algorithm: if e bounds within the
		// node, evict the minimum to make room and push the evicted
		// minimum into the left subtree; a new minimum/maximum goes
		// straight to the missing-child side.
		switch {
		case cmin < 0: // new global path minimum: new left leaf
			nl, err := v.insert(n.left, e) // n.left is Nil here
			if err != nil {
				return addr.Nil, err
			}
			n.left = nl
			v.mark(a)
		case cmax > 0: // new path maximum: new right leaf
			nr, err := v.insert(n.right, e)
			if err != nil {
				return addr.Nil, err
			}
			n.right = nr
			v.mark(a)
		default:
			evicted := n.entries[0]
			copy(n.entries, n.entries[1:])
			n.entries[len(n.entries)-1] = 0
			n.entries = n.entries[:len(n.entries)-1]
			if err := v.insertSorted(a, n, e); err != nil {
				return addr.Nil, err
			}
			nl, err := v.insert(n.left, evicted)
			if err != nil {
				return addr.Nil, err
			}
			if nl != n.left {
				n.left = nl
				v.mark(a)
			}
		}
	}
	return v.rebalance(a)
}

// Delete removes entry e from the tree; ErrNotFound if absent.
func (t *Tree) Delete(e uint64) error {
	v, err := t.newView()
	if err != nil {
		return err
	}
	nr, found, err := v.remove(v.root, e)
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	v.root = nr
	v.count--
	v.hdrMod = true
	return v.flush()
}

func (v *view) remove(a addr.EntityAddr, e uint64) (addr.EntityAddr, bool, error) {
	if a.IsNil() {
		return addr.Nil, false, nil
	}
	n, err := v.get(a)
	if err != nil {
		return addr.Nil, false, err
	}
	cmin, err := v.t.cmpE(e, n.entries[0])
	if err != nil {
		return addr.Nil, false, err
	}
	cmax, err := v.t.cmpE(e, n.entries[len(n.entries)-1])
	if err != nil {
		return addr.Nil, false, err
	}
	switch {
	case cmin < 0:
		nl, found, err := v.remove(n.left, e)
		if err != nil || !found {
			return a, found, err
		}
		if nl != n.left {
			n.left = nl
			v.mark(a)
		}
	case cmax > 0:
		nr, found, err := v.remove(n.right, e)
		if err != nil || !found {
			return a, found, err
		}
		if nr != n.right {
			n.right = nr
			v.mark(a)
		}
	default:
		// Bounded: e must be in this node if present.
		idx := -1
		for i, x := range n.entries {
			if x == e {
				idx = i
				break
			}
		}
		if idx < 0 {
			return a, false, nil
		}
		copy(n.entries[idx:], n.entries[idx+1:])
		n.entries = n.entries[:len(n.entries)-1]
		v.mark(a)
		// Refill an underflowing internal node from a subtree so that
		// internal nodes stay at least half full.
		minFill := (v.t.order + 1) / 2
		if len(n.entries) < minFill && !n.left.IsNil() {
			gl, nl, err := v.removeMax(n.left)
			if err != nil {
				return addr.Nil, false, err
			}
			if nl != n.left {
				n.left = nl
			}
			n.entries = append([]uint64{gl}, n.entries...)
			v.mark(a)
		} else if len(n.entries) < minFill && !n.right.IsNil() {
			sm, nr, err := v.removeMin(n.right)
			if err != nil {
				return addr.Nil, false, err
			}
			if nr != n.right {
				n.right = nr
			}
			n.entries = append(n.entries, sm)
			v.mark(a)
		}
		if len(n.entries) == 0 {
			// Empty node: splice it out. A node emptied by the refill
			// rules has at most one child.
			child := n.left
			if child.IsNil() {
				child = n.right
			}
			if err := v.free(a); err != nil {
				return addr.Nil, false, err
			}
			return child, true, nil
		}
	}
	na, err := v.rebalance(a)
	return na, true, err
}

// removeMax extracts the greatest entry of the subtree rooted at a,
// returning it and the new subtree root.
func (v *view) removeMax(a addr.EntityAddr) (uint64, addr.EntityAddr, error) {
	n, err := v.get(a)
	if err != nil {
		return 0, addr.Nil, err
	}
	if !n.right.IsNil() {
		e, nr, err := v.removeMax(n.right)
		if err != nil {
			return 0, addr.Nil, err
		}
		if nr != n.right {
			n.right = nr
			v.mark(a)
		}
		na, err := v.rebalance(a)
		return e, na, err
	}
	e := n.entries[len(n.entries)-1]
	n.entries = n.entries[:len(n.entries)-1]
	v.mark(a)
	if len(n.entries) == 0 {
		child := n.left
		if err := v.free(a); err != nil {
			return 0, addr.Nil, err
		}
		return e, child, nil
	}
	na, err := v.rebalance(a)
	return e, na, err
}

// removeMin extracts the smallest entry of the subtree rooted at a.
func (v *view) removeMin(a addr.EntityAddr) (uint64, addr.EntityAddr, error) {
	n, err := v.get(a)
	if err != nil {
		return 0, addr.Nil, err
	}
	if !n.left.IsNil() {
		e, nl, err := v.removeMin(n.left)
		if err != nil {
			return 0, addr.Nil, err
		}
		if nl != n.left {
			n.left = nl
			v.mark(a)
		}
		na, err := v.rebalance(a)
		return e, na, err
	}
	e := n.entries[0]
	copy(n.entries, n.entries[1:])
	n.entries = n.entries[:len(n.entries)-1]
	v.mark(a)
	if len(n.entries) == 0 {
		child := n.right
		if err := v.free(a); err != nil {
			return 0, addr.Nil, err
		}
		return e, child, nil
	}
	na, err := v.rebalance(a)
	return e, na, err
}

// Search calls fn with every entry whose key compares equal to key, in
// entry order; fn returns false to stop. Read-only.
func (t *Tree) Search(key any, fn func(entry uint64) bool) error {
	return t.Range(key, key, fn)
}

// Range calls fn for every entry with lo <= key <= hi in ascending
// order; nil bounds are unbounded. fn returns false to stop.
func (t *Tree) Range(lo, hi any, fn func(entry uint64) bool) error {
	root, _, _, err := t.readHeader()
	if err != nil {
		return err
	}
	_, err = t.scan(root, lo, hi, fn)
	return err
}

// scan walks the subtree in order, pruning with the bounds, and returns
// false when the scan is over: fn stopped it, or it passed hi. A node is
// compared by its minimum and maximum first and searched by bisection
// only when a bound falls inside it, so a scan costs O(depth + log order)
// comparisons plus none for the entries it reports.
func (t *Tree) scan(a addr.EntityAddr, lo, hi any, fn func(uint64) bool) (bool, error) {
	if a.IsNil() {
		return true, nil
	}
	var buf [stackEntries]uint64
	n, err := t.readNode(a, &buf)
	if err != nil {
		return false, err
	}
	e := n.entries
	if len(e) == 0 {
		return false, fmt.Errorf("ttree: empty node at %v", a)
	}
	last := len(e) - 1

	// start: the first entry not below lo. When lo <= the minimum that is
	// entry 0, and duplicates of the minimum key may extend into the left
	// subtree.
	start, goLeft := 0, lo == nil
	if lo != nil {
		c, err := t.cmpK(lo, e[0])
		if err != nil {
			return false, err
		}
		if goLeft = c <= 0; !goLeft {
			if c, err = t.cmpK(lo, e[last]); err != nil {
				return false, err
			}
			if c > 0 {
				start = len(e)
			} else if start, err = t.bound(lo, e[:last], 1, false); err != nil {
				return false, err
			}
		}
	}
	if goLeft {
		if cont, err := t.scan(n.left, lo, hi, fn); err != nil || !cont {
			return cont, err
		}
	}

	// end: the first entry above hi. When hi >= the maximum there is none,
	// and duplicates of the maximum key may extend into the right subtree.
	end := len(e)
	if hi != nil {
		c, err := t.cmpK(hi, e[last])
		if err != nil {
			return false, err
		}
		if c < 0 {
			if start == len(e) {
				return true, nil // lo above this node, hi below its maximum: an empty range
			}
			if end, err = t.bound(hi, e[:last], start, true); err != nil {
				return false, err
			}
		}
	}
	for _, x := range e[start:end] {
		if !fn(x) {
			return false, nil
		}
	}
	if end < len(e) {
		return false, nil
	}
	return t.scan(n.right, lo, hi, fn)
}

// bound returns the first position at or after from whose entry's key is
// not below key (above: is above key), or len(e); e is in key order.
func (t *Tree) bound(key any, e []uint64, from int, above bool) (int, error) {
	lo, hi := from, len(e)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c, err := t.cmpK(key, e[mid])
		if err != nil {
			return 0, err
		}
		if c < 0 || (c == 0 && !above) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// Count returns the number of entries in the tree.
func (t *Tree) Count() (uint64, error) {
	_, count, _, err := t.readHeader()
	return count, err
}

// Header returns the tree's header entity address.
func (t *Tree) Header() addr.EntityAddr { return t.header }

// Check verifies the structural invariants — entry order within and
// across nodes, AVL balance, stored heights, node fill, and the entry
// count — returning a descriptive error on the first violation.
func (t *Tree) Check() error {
	root, count, _, err := t.readHeader()
	if err != nil {
		return err
	}
	c := checker{t: t}
	if _, err := c.walk(root); err != nil {
		return err
	}
	if c.walked != count {
		return fmt.Errorf("ttree: header count %d != walked %d", count, c.walked)
	}
	return nil
}

// checker is the state of one Check: the in-order predecessor and the
// entries seen so far.
type checker struct {
	t       *Tree
	prev    uint64
	hasPrev bool
	walked  uint64
}

// walk checks the subtree at a and returns its height.
func (c *checker) walk(a addr.EntityAddr) (int16, error) {
	if a.IsNil() {
		return 0, nil
	}
	var buf [stackEntries]uint64
	n, err := c.t.readNode(a, &buf)
	if err != nil {
		return 0, err
	}
	if len(n.entries) == 0 {
		return 0, fmt.Errorf("ttree: empty node at %v", a)
	}
	if len(n.entries) > c.t.order {
		return 0, fmt.Errorf("ttree: overfull node at %v (%d > %d)", a, len(n.entries), c.t.order)
	}
	lh, err := c.walk(n.left)
	if err != nil {
		return 0, err
	}
	for i, e := range n.entries {
		if c.hasPrev {
			o, err := c.t.cmpE(c.prev, e)
			if err != nil {
				return 0, err
			}
			if o >= 0 {
				return 0, fmt.Errorf("ttree: order violation at %v entry %d", a, i)
			}
		}
		c.prev, c.hasPrev = e, true
		c.walked++
	}
	rh, err := c.walk(n.right)
	if err != nil {
		return 0, err
	}
	h := max(lh, rh) + 1
	if n.height != h {
		return 0, fmt.Errorf("ttree: stored height %d != actual %d at %v", n.height, h, a)
	}
	if d := lh - rh; d < -1 || d > 1 {
		return 0, fmt.Errorf("ttree: AVL violation at %v (balance %d)", a, d)
	}
	return h, nil
}
