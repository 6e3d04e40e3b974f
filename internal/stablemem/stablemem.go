// Package stablemem simulates the stable, reliable main memory that the
// paper's recovery design depends on (§1, §2.2): a few megabytes of
// memory that survives power loss and software failures, with read/write
// performance two to four times slower than regular memory.
//
// The simulation keeps the contents in the Go heap, owned by a Memory
// value that the crash model deliberately preserves: DB.Crash() discards
// every volatile structure but hands the Memory (inside hw.Hardware) to
// the restarted system. The slowdown is charged to a counter rather
// than actually sleeping, so experiments measure it without wall-clock
// penalty.
//
// The stable memory hosts three logically distinct regions, all drawn
// from one pool bounded by the configured capacity:
//
//   - the Stable Log Buffer (SLB): fixed-size blocks are allocated to
//     transactions on demand, each dedicated to a single transaction
//     for its lifetime, so critical sections are needed only for block
//     allocation, never for log writing itself (§2.3.1);
//   - the Stable Log Tail (SLT): per-partition information blocks and,
//     for active partitions, a current log-page buffer (§2.3.3);
//   - the root area: the well-known location holding catalog partition
//     addresses and the checkpoint communication buffer (§2.4, §2.5).
//
// Every allocation and free takes the Memory's one mutex, so a block
// freed by any SLB stream or by the SLT is at once usable by all.
//
// Blocks come from a free pool, as §2.3.1's SLB blocks do: Recycle
// returns a block to the pool and NewBlock draws from it before it
// makes a new one, so steady logging allocates no Go memory. The pool
// is only the bytes; the capacity accounting (Reserve, Release, Used)
// counts a pooled block as free, exactly as it counts a dropped one.
// The pool is a sync.Pool per size class, so blocks nobody draws again
// are given back to the Go heap at the next collections. A block whose
// holder cannot be sure nobody else still writes to it is dropped with
// Free, never recycled.
//
// Typed stable structures are registered under Root by their owners; the
// byte-level Block type is used where the paper manipulates raw pages.
package stablemem

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"mmdb/internal/fault"
	"mmdb/internal/metrics"
)

// ErrExhausted is returned when an allocation would exceed the stable
// memory's configured capacity.
var ErrExhausted = errors.New("stablemem: capacity exhausted")

// ErrNoSpace is returned by Block.Append when the record does not fit
// in the block's remaining space.
var ErrNoSpace = errors.New("stablemem: block full")

// ErrFreed is returned by Block.Append on a block that was freed or
// recycled: its holder outlived its claim on it.
var ErrFreed = errors.New("stablemem: append to a freed block")

// Memory is the stable reliable memory module.
type Memory struct {
	slowdown int64 // cost multiplier vs regular memory (paper: 4)

	// refs counts byte references times slowdown (nil-safe); inj is the
	// optional fault injector consulted on every block append (fault
	// point "stable.append"). Both are atomic because appends are
	// deliberately lock-free per §2.3.1 while both are rewired at each
	// recovery generation.
	refs atomic.Pointer[metrics.Counter]
	inj  atomic.Pointer[fault.Injector]

	mu       sync.Mutex
	capacity int64
	used     int64

	// root holds typed stable regions registered by their owners
	// (e.g. the recovery manager's Stable Log Tail). The contents
	// survive a crash because the Memory value does.
	root map[string]any

	// free is the block pool: free[c] holds recycled *Blocks whose
	// buffers have capacity 1<<c.
	free [bits.UintSize]sync.Pool
}

// New creates a stable memory of the given capacity in bytes. slowdown
// is the per-byte cost multiplier relative to regular memory; the paper
// projects 4 for near-future stable reliable memory. refs, which may be
// nil, is charged slowdown per byte read or written.
func New(capacity int64, slowdown int, refs *metrics.Counter) *Memory {
	if slowdown < 1 {
		slowdown = 1
	}
	m := &Memory{
		slowdown: int64(slowdown),
		capacity: capacity,
		root:     make(map[string]any),
	}
	m.refs.Store(refs)
	return m
}

// SetRefs points the byte-reference charges at c (nil detaches): the
// memory outlives the registry of the instance that was using it.
func (m *Memory) SetRefs(c *metrics.Counter) { m.refs.Store(c) }

// SetInjector attaches a fault injector to the memory's append path.
// A nil injector detaches.
func (m *Memory) SetInjector(inj *fault.Injector) { m.inj.Store(inj) }

// Used returns the currently reserved byte count.
func (m *Memory) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// Reserve accounts for n bytes of stable memory used by a typed stable
// structure. It fails with ErrExhausted if the capacity would be
// exceeded.
func (m *Memory) Reserve(n int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.used+n > m.capacity {
		return fmt.Errorf("%w: used %d + request %d > capacity %d",
			ErrExhausted, m.used, n, m.capacity)
	}
	m.used += n
	return nil
}

// Release returns n bytes reserved with Reserve.
func (m *Memory) Release(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.used -= n
	if m.used < 0 {
		panic("stablemem: release underflow")
	}
}

// ChargeWrite charges the cost of writing n bytes to stable memory.
func (m *Memory) ChargeWrite(n int) {
	m.refs.Load().Add(int64(n) * m.slowdown)
}

// ChargeRead charges the cost of reading n bytes from stable memory.
func (m *Memory) ChargeRead(n int) {
	m.refs.Load().Add(int64(n) * m.slowdown)
}

// SetRoot registers a typed stable region under the given well-known
// name. The region's byte footprint must have been reserved separately.
func (m *Memory) SetRoot(name string, v any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.root[name] = v
}

// Root retrieves a typed stable region registered with SetRoot, or nil.
func (m *Memory) Root(name string) any {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.root[name]
}

// Block is a fixed-size block of stable memory. Blocks back the Stable
// Log Buffer and the Stable Log Tail's log pages.
type Block struct {
	mem *Memory // nil once the block is freed or recycled
	buf []byte  // len is the block size; cap is its pool class
	n   int     // bytes appended so far
}

// sizeClass is the pool a block of size bytes is kept in: the smallest
// power of two that holds it.
func sizeClass(size int) int {
	if size <= 1 {
		return 0
	}
	return bits.Len(uint(size - 1))
}

// NewBlock allocates a block of the given size, reserving its footprint.
// It reuses a recycled block of the size's class when the pool has one;
// a reused block's bytes past Len are stale, never zero, and nothing
// reads them.
func (m *Memory) NewBlock(size int) (*Block, error) {
	if err := m.Reserve(int64(size)); err != nil {
		return nil, err
	}
	c := sizeClass(size)
	b, _ := m.free[c].Get().(*Block)
	if b == nil {
		b = &Block{buf: make([]byte, 1<<c)}
	}
	b.mem, b.buf, b.n = m, b.buf[:size], 0
	return b, nil
}

// Free releases the block's stable memory reservation and drops the
// block: it is never handed out again, so a holder that outlived its
// claim can do no harm. Freeing a freed block is a no-op.
func (b *Block) Free() {
	if b.mem != nil {
		b.mem.Release(int64(len(b.buf)))
		b.mem = nil
	}
}

// Recycle releases the block's reservation, as Free does, and returns
// the block to the free pool for a later NewBlock. Only the block's sole
// holder may recycle it: whoever writes to or reads it afterwards sees
// another owner's bytes. Recycling a freed block is a no-op.
func (b *Block) Recycle() {
	m := b.mem
	if m == nil {
		return
	}
	b.Free()
	m.free[sizeClass(len(b.buf))].Put(b)
}

// Size returns the block's capacity in bytes.
func (b *Block) Size() int { return len(b.buf) }

// Len returns the number of bytes appended so far.
func (b *Block) Len() int { return b.n }

// Remaining returns the free space left in the block.
func (b *Block) Remaining() int { return len(b.buf) - b.n }

// Append copies p into the block, charging stable-write cost. It
// returns ErrNoSpace (writing nothing) if p does not fit. A crash
// injected mid-append can leave a torn prefix of p in the block — the
// exact failure mode the bin-tail check after a crash exists for. A
// mutation act silently lands damaged bytes while Append still reports
// success: stable memory has no ECC at all, so only the record CRCs
// checked by replay can catch the rot.
func (b *Block) Append(p []byte) error {
	return b.AppendWith(len(p), func(dst []byte) { copy(dst, p) })
}

// AppendWith appends n bytes that fill writes in place into the
// block's tail, so the caller encodes straight into stable memory. fill
// must write all of dst. It behaves as Append of those bytes: one
// "stable.append" hit of n bytes, ErrNoSpace if they do not fit, and
// a torn or mutated append lands what Append would have landed.
func (b *Block) AppendWith(n int, fill func(dst []byte)) error {
	if b.mem == nil {
		return ErrFreed
	}
	if n > b.Remaining() {
		return ErrNoSpace
	}
	dec := b.mem.inj.Load().Check(fault.PointStableAppend, n)
	tail := b.buf[b.n : b.n+n]
	fill(tail)
	if dec.Mutated() {
		n = copy(tail, dec.MutateBytes(tail))
	}
	n = dec.ApplyBytes(n)
	if dec.Err != nil && n == 0 {
		return dec.Err
	}
	b.n += n
	b.mem.ChargeWrite(n)
	return dec.Err
}

// Region is a raw fixed-size area of stable memory with random-access
// reads and writes, for stable structures that manage their own layout
// (the trace flight recorder). Unlike Block.Append, Region writes are
// deliberately NOT fault-instrumented: the flight recorder must be able
// to record the crash itself — the fault-trigger event is written on
// the way down — and routing its writes through the "stable.append"
// fault point would both forbid that and shift the point's hit counts,
// breaking the reproducibility of existing crashhunt plan strings.
type Region struct {
	mem *Memory
	buf []byte
}

// NewRegion allocates a raw region of the given size, reserving its
// footprint against the stable capacity.
func (m *Memory) NewRegion(size int) (*Region, error) {
	if err := m.Reserve(int64(size)); err != nil {
		return nil, err
	}
	return &Region{mem: m, buf: make([]byte, size)}, nil
}

// Free releases the region's stable memory reservation.
func (r *Region) Free() {
	if r.mem != nil {
		r.mem.Release(int64(len(r.buf)))
		r.mem = nil
	}
}

// Size returns the region's capacity in bytes.
func (r *Region) Size() int { return len(r.buf) }

// WriteAt copies p into the region at off, charging stable-write cost.
// The write must fit; callers own the layout.
func (r *Region) WriteAt(off int, p []byte) {
	copy(r.buf[off:], p)
	r.mem.ChargeWrite(len(p))
}

// ReadAt fills p with the region bytes at off, charging stable-read
// cost. The read must fit; callers own the layout and the buffer.
func (r *Region) ReadAt(p []byte, off int) {
	copy(p, r.buf[off:off+len(p)])
	r.mem.ChargeRead(len(p))
}

// Truncate discards appended bytes past n, so restart can cut a torn
// record tail back to the last cleanly decodable boundary.
func (b *Block) Truncate(n int) {
	if n < 0 {
		n = 0
	}
	if n < b.n {
		b.n = n
	}
}

// Bytes returns the appended contents, charging stable-read cost. It
// panics on a freed block: its bytes may be another holder's by now.
func (b *Block) Bytes() []byte {
	if b.mem == nil {
		panic("stablemem: Bytes of a freed block")
	}
	b.mem.ChargeRead(b.n)
	return b.buf[:b.n]
}

// Reset empties the block for reuse.
func (b *Block) Reset() { b.n = 0 }
