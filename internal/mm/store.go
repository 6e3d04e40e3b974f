package mm

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mmdb/internal/addr"
)

// ErrNotResident is returned when a partition is neither in memory nor
// recoverable via the resolve hook — e.g. after a crash before recovery
// has been wired up.
var ErrNotResident = errors.New("mm: partition not memory-resident")

// ResolveFunc recovers a missing partition on demand (§2.5: transactions
// "generate a restore process for those partitions that are not yet
// recovered"). It returns the recovered partition or an error.
type ResolveFunc func(id addr.PartitionID) (*Partition, error)

// Toucher is the heat tracker as the store sees it: one access count
// per partition, the same counter for as long as the tracker lives. The
// store keeps a resident partition's counter on the partition, so a
// resident resolve adds to it and calls Tick, and only a miss asks for
// the counter by address. Implementations must be safe for concurrent
// use; Count may return nil to count nothing.
type Toucher interface {
	// Count returns id's access counter.
	Count(id addr.PartitionID) *atomic.Int64
	// Tick records one access already added to a counter.
	Tick()
}

// heatRef is a resident partition's access counter and the tracker
// that owns it.
type heatRef struct {
	n *atomic.Int64
	t Toucher
}

// newHeatRef returns id's counter under h, or nil if h counts nothing.
func newHeatRef(h Toucher, id addr.PartitionID) *heatRef {
	if h == nil {
		return nil
	}
	if n := h.Count(id); n != nil {
		return &heatRef{n: n, t: h}
	}
	return nil
}

func (r *heatRef) hit() {
	r.n.Add(1)
	r.t.Tick()
}

// Bounds of the published table. Segments and the partitions of a
// segment are numbered densely, so real addresses sit far below them;
// an address past them (a rotted catalog entry, say) is kept in
// Store.far rather than growing the table to its size.
const (
	tableSegs  = 1 << 16
	tableParts = 1 << 20
)

func inTable(id addr.PartitionID) bool {
	return id.Segment < tableSegs && id.Part < tableParts
}

// table is the store's residency as Partition reads it without a lock:
// segs[seg] holds the segment's partition slots, indexed by partition
// number, or is nil. Writers hold Store.mu and publish every change
// before they return; a level that must grow is copied at double the
// size and the copy published.
type table struct {
	segs []atomic.Pointer[slots]
}

type slots []atomic.Pointer[Partition]

func (t *table) at(id addr.PartitionID) *Partition {
	if int(id.Segment) < len(t.segs) {
		if s := t.segs[id.Segment].Load(); s != nil && int(id.Part) < len(*s) {
			return (*s)[id.Part].Load()
		}
	}
	return nil
}

// grown returns a copy of s with room for at least n slots.
func (s *slots) grown(n int) *slots {
	size := 8
	for size < n {
		size *= 2
	}
	g := make(slots, size)
	if s != nil {
		for i := range *s {
			g[i].Store((*s)[i].Load())
		}
	}
	return &g
}

// Store is the volatile memory manager: the set of segments making up
// the primary, memory-resident copy of the database. It is discarded
// wholesale by a crash.
type Store struct {
	partSize int

	// tab publishes which partitions are resident; see table. Every
	// change to it is made under mu.
	tab atomic.Pointer[table]

	mu      sync.RWMutex
	segs    map[addr.SegmentID]*segment
	far     map[addr.PartitionID]*Partition // resident, outside the table
	nextSeg addr.SegmentID
	resolve ResolveFunc
	heat    Toucher

	// resolveMu guards inflight, the per-partition recovery coalescing
	// map: distinct partitions recover concurrently (the parallel
	// background sweep depends on it), while all demanders of one
	// partition — foreground transactions and sweep workers alike —
	// share a single recovery transaction (§2.5).
	resolveMu sync.Mutex
	inflight  map[addr.PartitionID]*inflightRecovery
}

// inflightRecovery is one in-progress recovery transaction; done closes
// after p/err are set and the partition (on success) is installed.
type inflightRecovery struct {
	done chan struct{}
	p    *Partition
	err  error
}

type segment struct {
	id addr.SegmentID
	// nextPart is past every partition of the segment known to exist,
	// resident (attach) or only named by the catalogs (Store.Reserve).
	nextPart addr.PartitionNum
	// ordered lists the resident partitions by number. Readers
	// (Partitions, Place) take it through view and keep using it after
	// they drop st.mu, so once lent it is never rewritten in place: the
	// next change copies it first. Installs that no reader came between —
	// a restart sweep — stay in place and allocation-free.
	ordered []*Partition
	lent    atomic.Bool
	hint    placeHint
}

func newSegment(id addr.SegmentID) *segment {
	return &segment{id: id}
}

// view returns ordered for reading. Caller holds st.mu.
func (s *segment) view() []*Partition {
	if !s.lent.Load() { // every insert comes through here: do not dirty the line each time
		s.lent.Store(true)
	}
	return s.ordered
}

// unshare makes ordered safe to rewrite in place. Caller holds st.mu
// for writing.
func (s *segment) unshare() {
	if s.lent.Load() {
		s.ordered = slices.Clone(s.ordered)
		s.lent.Store(false)
	}
}

// attach makes p resident in s, replacing any prior copy. Caller holds
// st.mu for writing.
func (st *Store) attach(s *segment, p *Partition) {
	p.hint = &s.hint
	p.heat.Store(newHeatRef(st.heat, p.id))
	st.publish(p.id, p)
	if p.id.Part >= s.nextPart {
		s.nextPart = p.id.Part + 1
	}
	i := firstAtOrAbove(s.ordered, p.id.Part)
	if i == len(s.ordered) {
		s.ordered = append(s.ordered, p) // past every reader's length
	} else {
		s.unshare()
		if s.ordered[i].id.Part == p.id.Part {
			s.ordered[i] = p
		} else {
			s.ordered = slices.Insert(s.ordered, i, p)
		}
	}
	s.hint.rewind(p.id.Part) // p may have room
}

// detach removes a partition from memory. Caller holds st.mu for
// writing.
func (st *Store) detach(s *segment, part addr.PartitionNum) {
	id := addr.PartitionID{Segment: s.id, Part: part}
	if st.lookup(id) == nil {
		return
	}
	st.publish(id, nil)
	s.unshare()
	i := firstAtOrAbove(s.ordered, part)
	s.ordered = slices.Delete(s.ordered, i, i+1)
}

// publish makes p the resident copy at id, or none if p is nil. Caller
// holds st.mu for writing.
func (st *Store) publish(id addr.PartitionID, p *Partition) {
	switch {
	case inTable(id):
		(*st.room(id))[id.Part].Store(p)
	case p == nil:
		delete(st.far, id)
	default:
		st.far[id] = p
	}
}

// room returns the slots of id's segment, first growing the table and
// the slots to hold id. Caller holds st.mu for writing; id is in the
// table.
func (st *Store) room(id addr.PartitionID) *slots {
	t := st.tab.Load()
	if int(id.Segment) >= len(t.segs) {
		g := &table{segs: make([]atomic.Pointer[slots], min(2*int(id.Segment)+1, tableSegs))}
		for i := range t.segs {
			g.segs[i].Store(t.segs[i].Load())
		}
		st.tab.Store(g)
		t = g
	}
	seg := &t.segs[id.Segment]
	s := seg.Load()
	if s == nil || int(id.Part) >= len(*s) {
		s = s.grown(int(id.Part) + 1)
		seg.Store(s)
	}
	return s
}

// lookup returns the resident copy at id or nil. Caller holds st.mu
// unless id is in the table.
func (st *Store) lookup(id addr.PartitionID) *Partition {
	if inTable(id) {
		return st.tab.Load().at(id)
	}
	return st.far[id]
}

// residentPart returns the resident partition or nil. For an address
// in the table it takes no lock.
func (st *Store) residentPart(id addr.PartitionID) *Partition {
	if inTable(id) {
		return st.tab.Load().at(id)
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.far[id]
}

// firstAtOrAbove returns the position in parts, which is ordered, of the
// first partition numbered part or higher.
func firstAtOrAbove(parts []*Partition, part addr.PartitionNum) int {
	// Numbering is dense unless partitions were freed or are not yet
	// recovered, so the number itself is usually the position.
	if i := int(part); i < len(parts) && parts[i].id.Part == part {
		return i
	}
	return sort.Search(len(parts), func(i int) bool { return parts[i].id.Part >= part })
}

// placeHint is a segment's first-fit cursor: every resident partition
// numbered below part has Room() < need, so an insert of at least need
// bytes may start its scan at part. Whatever frees space in a partition
// (delete, shrinking update — hence every undo of an insert — or a
// partition becoming resident) rewinds part to it; gen lets a scan that
// raced with a rewind discard its stale conclusion.
type placeHint struct {
	mu  sync.Mutex
	gen uint64
	cursor
}

type cursor struct {
	part addr.PartitionNum
	need int
}

func (h *placeHint) load() (cursor, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cursor, h.gen
}

func (h *placeHint) rewind(part addr.PartitionNum) {
	if h == nil {
		return // a partition outside any store
	}
	h.mu.Lock()
	if part < h.part {
		h.part = part
	}
	h.gen++
	h.mu.Unlock()
}

// NewStore creates an empty store whose partitions are partSize bytes.
func NewStore(partSize int) *Store {
	st := &Store{
		partSize: partSize,
		segs:     make(map[addr.SegmentID]*segment),
		far:      make(map[addr.PartitionID]*Partition),
		nextSeg:  addr.FirstUserSegment,
		inflight: make(map[addr.PartitionID]*inflightRecovery),
	}
	st.tab.Store(&table{})
	return st
}

// PartitionSize returns the configured partition size in bytes.
func (st *Store) PartitionSize() int { return st.partSize }

// SetResolve installs the on-demand recovery hook.
func (st *Store) SetResolve(fn ResolveFunc) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.resolve = fn
}

// SetHeat installs the access-heat sink that counts every Partition
// demand, and hands each resident partition its counter. nil disables
// tracking.
func (st *Store) SetHeat(h Toucher) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.heat = h
	for _, s := range st.segs {
		for _, p := range s.ordered {
			p.heat.Store(newHeatRef(h, p.id))
		}
	}
}

// CreateSegment allocates a fresh segment ID for a new database object.
func (st *Store) CreateSegment() addr.SegmentID {
	st.mu.Lock()
	defer st.mu.Unlock()
	id := st.nextSeg
	st.nextSeg++
	st.segs[id] = newSegment(id)
	return id
}

// EnsureSegment registers a segment with a specific ID (catalog
// bootstrap and post-crash reconstruction).
func (st *Store) EnsureSegment(id addr.SegmentID) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ensureSegment(id)
}

// ensureSegment returns the segment, registering it first if needed.
// Caller holds st.mu for writing.
func (st *Store) ensureSegment(id addr.SegmentID) *segment {
	s, ok := st.segs[id]
	if !ok {
		s = newSegment(id)
		st.segs[id] = s
	}
	if id >= st.nextSeg {
		st.nextSeg = id + 1
	}
	return s
}

// Reserve records that a partition exists although it may not be
// resident: after a crash the catalogs name partitions that recovery
// has not restored yet. AllocPartition numbers new partitions past
// every reserved one, so a fresh partition can never take the place of
// one still waiting to be recovered.
func (st *Store) Reserve(id addr.PartitionID) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if s := st.ensureSegment(id.Segment); id.Part >= s.nextPart {
		s.nextPart = id.Part + 1
	}
}

// DropSegment discards a segment and its partitions.
func (st *Store) DropSegment(id addr.SegmentID) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.segs[id]
	if !ok {
		return
	}
	for _, p := range s.ordered {
		delete(st.far, p.id)
	}
	if t := st.tab.Load(); int(id) < len(t.segs) {
		t.segs[id].Store(nil)
	}
	delete(st.segs, id)
}

// AllocPartition adds a new, empty partition to the segment and returns
// it. The partition is immediately resident.
func (st *Store) AllocPartition(seg addr.SegmentID) (*Partition, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.segs[seg]
	if !ok {
		return nil, fmt.Errorf("mm: no such segment %d", seg)
	}
	p := NewPartition(addr.PartitionID{Segment: seg, Part: s.nextPart}, st.partSize)
	st.attach(s, p)
	return p, nil
}

// AllocPartitionAt registers a partition with a specific number; used
// when REDO replay must recreate the exact partition numbering.
func (st *Store) AllocPartitionAt(id addr.PartitionID) (*Partition, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.segs[id.Segment]
	if !ok {
		return nil, fmt.Errorf("mm: no such segment %d", id.Segment)
	}
	if st.lookup(id) != nil {
		return nil, fmt.Errorf("mm: partition %v already exists", id)
	}
	p := NewPartition(id, st.partSize)
	st.attach(s, p)
	return p, nil
}

// Install places a recovered partition into its segment, replacing any
// prior copy.
func (st *Store) Install(p *Partition) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attach(st.ensureSegment(p.id.Segment), p)
}

// Evict removes a partition from memory without touching stable copies;
// used by tests and by crash simulation of partial residency.
func (st *Store) Evict(id addr.PartitionID) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.segs[id.Segment]; ok {
		st.detach(s, id.Part)
	}
}

// Resident reports whether the partition is currently in memory.
func (st *Store) Resident(id addr.PartitionID) bool {
	return st.residentPart(id) != nil
}

// Partition returns the partition, triggering on-demand recovery through
// the resolve hook if it is not resident. Concurrent demanders of the
// same partition coalesce into one recovery transaction (§2.5); distinct
// partitions recover in parallel. Every call that returns a partition
// counts one access to the heat sink, on the partition's own counter; a
// demand that finds none (a partition dropped under a late checkpoint,
// say) gives its address no count back. A resident partition is found
// in the published table, with no lock taken.
func (st *Store) Partition(id addr.PartitionID) (*Partition, error) {
	p := st.residentPart(id)
	if p == nil {
		var err error
		if p, err = st.miss(id); err != nil {
			return nil, err
		}
	}
	if h := p.heat.Load(); h != nil {
		h.hit()
	}
	return p, nil
}

// miss is Partition for a partition that was not resident.
func (st *Store) miss(id addr.PartitionID) (*Partition, error) {
	st.mu.RLock()
	resolve := st.resolve
	st.mu.RUnlock()
	if resolve == nil {
		return nil, fmt.Errorf("%w: %v", ErrNotResident, id)
	}
	st.resolveMu.Lock()
	// Re-check residency under resolveMu: a recovery that completed
	// between the fast-path miss and here must not run again (two
	// installed copies would race, and the second would silently drop
	// updates applied to the first).
	if rp := st.residentPart(id); rp != nil {
		st.resolveMu.Unlock()
		return rp, nil
	}
	if f, ok := st.inflight[id]; ok {
		// Someone else is already recovering this partition: wait for
		// that single recovery transaction's outcome.
		st.resolveMu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		return f.p, nil
	}
	f := &inflightRecovery{done: make(chan struct{})}
	st.inflight[id] = f
	st.resolveMu.Unlock()

	f.p, f.err = resolve(id)
	// Install and remove the inflight entry under one hold of
	// resolveMu, so a demander that re-checks under it finds either the
	// resident partition or this entry — never a gap that would start a
	// second recovery of an installed partition, nor an entry that
	// outlives its install and would hand this copy to a demander after
	// a later Evict. Failed recoveries clear the entry so a later demand
	// can retry.
	st.resolveMu.Lock()
	if f.err == nil {
		st.Install(f.p)
	}
	delete(st.inflight, id)
	st.resolveMu.Unlock()
	close(f.done)
	if f.err != nil {
		return nil, f.err
	}
	return f.p, nil
}

// Partitions returns the resident partitions of a segment in partition
// order. The slice is the store's own and must not be modified.
func (st *Store) Partitions(seg addr.SegmentID) []*Partition {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s, ok := st.segs[seg]
	if !ok {
		return nil
	}
	return s.view()
}

// Place stores data in the first resident partition of seg, in
// partition order, that has room for it and is not privately owned by a
// transaction other than txn, and returns that partition and the slot;
// the partition is nil if there is none and the caller must allocate.
//
// That is plain first fit, and Place decides exactly as a scan from the
// segment's first partition would. What makes it cheap is that a full
// partition answers from its header (Partition.Room) and that the
// segment's cursor (placeHint) skips the full prefix. The cursor keeps
// the smallest size known to fail on its whole prefix, so inserts at
// least that large start at it; smaller ones scan from the start and
// take the cursor over once they have confirmed its prefix for their
// size.
func (st *Store) Place(seg addr.SegmentID, txn uint64, data []byte) (*Partition, addr.Slot, error) {
	if len(data) > MaxEntity(st.partSize) {
		return nil, 0, fmt.Errorf("%w: %d bytes into %d-byte partition", ErrEntityTooBig, len(data), st.partSize)
	}
	return st.scanFrom(seg).place(txn, data)
}

// scan is what one Place works from: a segment's partition list and its
// cursor as they stood at one moment.
type scan struct {
	hint  *placeHint
	parts []*Partition
	was   cursor
	gen   uint64
}

// scanFrom takes list and cursor under one hold of st.mu. A partition
// attached later is therefore missing from the list only if it has also
// moved gen past the one read here, which voids what the scan concludes.
func (st *Store) scanFrom(seg addr.SegmentID) scan {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := st.segs[seg]
	if s == nil {
		return scan{}
	}
	v := scan{hint: &s.hint, parts: s.view()}
	v.was, v.gen = v.hint.load()
	return v
}

func (v scan) place(txn uint64, data []byte) (*Partition, addr.Slot, error) {
	if len(v.parts) == 0 {
		return nil, 0, nil
	}
	d := len(data)
	// Partitions below at.part have Room() < at.need, and at.need <= d.
	at := v.was
	if at.part == 0 || d < at.need {
		at = cursor{part: 0, need: d}
	}
	extending := true
	var placed *Partition
	var slot addr.Slot
	for _, p := range v.parts[firstAtOrAbove(v.parts, at.part):] {
		p.Latch()
		room := p.Room()
		if room < d {
			p.Unlatch()
			if extending = extending && room < at.need; extending {
				at.part = p.id.Part + 1
			}
			continue
		}
		extending = false
		if o := p.Owner(); o != 0 && o != txn {
			p.Unlatch()
			continue
		}
		var err error
		slot, err = p.Insert(data)
		p.Unlatch()
		if err != nil {
			return nil, 0, err
		}
		placed = p
		break
	}

	// A smaller insert that stopped short of the cursor knows less than
	// the cursor does; anything else it learned replaces it.
	if at != v.was && !(at.need < v.was.need && at.part < v.was.part) {
		v.hint.mu.Lock()
		if v.hint.gen == v.gen {
			v.hint.cursor = at
		}
		v.hint.mu.Unlock()
	}
	return placed, slot, nil
}

// ResidentIDs lists every resident partition across all segments.
func (st *Store) ResidentIDs() []addr.PartitionID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []addr.PartitionID
	for _, s := range st.segs {
		for _, p := range s.ordered {
			out = append(out, p.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Lend is Partition.Lend at a full address, resolving residency first.
func (st *Store) Lend(a addr.EntityAddr) ([]byte, sync.Locker, error) {
	p, err := st.Partition(a.Partition())
	if err != nil {
		return nil, nil, err
	}
	return p.Lend(a.Slot)
}

// Read fetches the entity at a full address, resolving residency.
func (st *Store) Read(a addr.EntityAddr) ([]byte, error) {
	p, err := st.Partition(a.Partition())
	if err != nil {
		return nil, err
	}
	return p.Read(a.Slot)
}
