// Package trace is the structured event-tracing layer of the recovery
// architecture: where internal/metrics answers "how often / how slow",
// trace answers "what exactly happened, in what order".
//
// Events are compact binary records — a monotonic sim-clock timestamp,
// a sequence number, an event kind, and the txn / partition / LSN
// fields relevant to the kind — emitted from the hot paths already
// instrumented for metrics: transaction begin/commit/abort, lock
// block/grant/deadlock, SLB record appends, bin page flushes,
// checkpoint transactions, every restart phase, and fault-injector
// rule firings.
//
// A Tracer writes into one sink, the flight recorder: a fixed-size ring
// of encoded events carved out of stable reliable memory
// (internal/stablemem), which survives injected crashes exactly as the
// Stable Log Buffer does (§2.2). Live inspection (mmdbsh trace, Chrome
// trace export) decodes the current generation's ring; after a crash,
// Attach recovers the previous generation's ring so the restarted
// system can dump the precise pre-crash timeline (DB.CrashTrace).
//
// The ring is sealed the instant a crash fires — the fault trigger
// event is the last event written — so the recovered timeline ends at
// the failure, not in post-crash shutdown noise.
//
// A nil *Tracer is the zero-cost off state: every method is
// nil-receiver safe and untraced hot paths pay a single branch, the
// same discipline as internal/fault and internal/metrics.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Kind identifies one event type.
type Kind uint8

// The event catalog. See docs/TRACING.md for the fields each kind
// carries.
const (
	KindInvalid Kind = iota

	// Transaction lifecycle (§2.3.1). Arg on commit is the REDO record
	// count of the transaction.
	KindTxnBegin
	KindTxnCommit
	KindTxnAbort

	// 2PL lock waits (§2.3.2): block/grant pair around a queued wait;
	// deadlock marks the victim. Arg is the lock name ID, Arg2 its kind.
	KindLockBlock
	KindLockGrant
	KindLockDeadlock

	// One REDO record appended to the Stable Log Buffer (§2.3.1).
	// Arg is the encoded record size in bytes.
	KindSLBAppend

	// One bin page written to the duplexed log disks (§2.3.3).
	// Arg is the record count of the page.
	KindPageFlush

	// Checkpoint transaction phases (§2.4). Txn is the checkpoint
	// transaction's ID; CkptTrack's Arg is the checkpoint disk track,
	// CkptEnd's Arg the image size in bytes.
	KindCkptBegin
	KindCkptTrack
	KindCkptEnd
	KindCkptFail

	// Restart phases (§2.5): the root scan restores the catalogs before
	// the first transaction; PartRedo is one per-partition recovery
	// transaction (Arg = records replayed, Arg2 = log pages read); the
	// background sweep restores not-yet-demanded partitions (SweepEnd's
	// Arg = partitions restored, Arg2 = partitions given up on).
	KindRootScanBegin
	KindRootScanEnd
	KindPartRedo
	KindSweepBegin
	KindSweepEnd

	// Parallel-sweep fan-out: one worker goroutine's begin/end pair
	// (Arg = worker index; SweepWorkerEnd's Arg2 = partitions this
	// worker restored). Chrome exports give each worker its own lane.
	KindSweepWorkerBegin
	KindSweepWorkerEnd
	// A sweep-level failure: partition enumeration failed or one
	// partition's recovery gave up (Str = error, Seg/Part set for
	// per-partition failures).
	KindSweepError

	// A fault-injector rule fired (or DB.Crash forced a halt). Str is
	// "point:act", Arg the hit index. For crash acts this is, by
	// construction, the final event of the flight recorder.
	KindFaultTrigger

	// Network front-end (internal/server). NetAccept/NetClose bracket a
	// connection's lifetime (Arg = connection ID; NetClose's Arg2 = total
	// requests served on it). NetDispatch is the connection's goroutine
	// taking an execution slot for one request (Arg = connection ID,
	// Arg2 = opcode, Txn = wire request ID). NetFlush is one batch of
	// responses written to the socket (Arg = connection ID, Arg2 = frames
	// in the batch, LSN = bytes written).
	KindNetAccept
	KindNetClose
	KindNetDispatch
	KindNetFlush

	// Heat-aware recovery observability. HeatSnapshot is one persist of
	// the partition-heat ranking into its stable region (Arg = entries
	// persisted, Arg2 = payload bytes). SweepProgress is a periodic
	// background-sweep checkpoint (Arg = partitions restored so far,
	// Arg2 = sweep total). HeatP99Restored stamps the moment ≥99% of
	// the pre-crash access weight is resident again (Arg = nanoseconds
	// since Restart began) — the time-to-p99-restored moment.
	KindHeatSnapshot
	KindSweepProgress
	KindHeatP99Restored

	// A replay-side parser rejected rotted record bytes and quarantined
	// the corrupt range instead of applying it (Arg = clean prefix bytes
	// kept, Arg2 = bytes quarantined; Txn / Seg / Part set when the
	// range's owner is known; Str = the typed decode error).
	KindRecordQuarantine

	// A lost or rotted checkpoint image was repaired by replaying the
	// partition's archived history (§2.6): Arg = log pages replayed,
	// Arg2 = damaged archive entries skipped along the way; Str is set
	// to the failure when the archive could not serve and recovery
	// degraded to an announced empty image.
	KindArchiveRebuild

	kindMax
)

var kindNames = [...]string{
	KindInvalid:          "invalid",
	KindTxnBegin:         "txn-begin",
	KindTxnCommit:        "txn-commit",
	KindTxnAbort:         "txn-abort",
	KindLockBlock:        "lock-block",
	KindLockGrant:        "lock-grant",
	KindLockDeadlock:     "lock-deadlock",
	KindSLBAppend:        "slb-append",
	KindPageFlush:        "page-flush",
	KindCkptBegin:        "ckpt-begin",
	KindCkptTrack:        "ckpt-track",
	KindCkptEnd:          "ckpt-end",
	KindCkptFail:         "ckpt-fail",
	KindRootScanBegin:    "root-scan-begin",
	KindRootScanEnd:      "root-scan-end",
	KindPartRedo:         "part-redo",
	KindSweepBegin:       "sweep-begin",
	KindSweepEnd:         "sweep-end",
	KindSweepWorkerBegin: "sweep-worker-begin",
	KindSweepWorkerEnd:   "sweep-worker-end",
	KindSweepError:       "sweep-error",
	KindFaultTrigger:     "fault-trigger",
	KindNetAccept:        "net-accept",
	KindNetClose:         "net-close",
	KindNetDispatch:      "net-dispatch",
	KindNetFlush:         "net-flush",
	KindHeatSnapshot:     "heat-snapshot",
	KindSweepProgress:    "sweep-progress",
	KindHeatP99Restored:  "heat-p99-restored",
	KindRecordQuarantine: "record-quarantine",
	KindArchiveRebuild:   "archive-rebuild",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a defined event kind.
func (k Kind) Valid() bool { return k > KindInvalid && k < kindMax }

// Subsystem returns the lane an event kind belongs to, matching the
// metrics registry's subsystem names.
func (k Kind) Subsystem() string {
	switch k {
	case KindTxnBegin, KindTxnCommit, KindTxnAbort:
		return "txn"
	case KindLockBlock, KindLockGrant, KindLockDeadlock:
		return "lock"
	case KindSLBAppend:
		return "slb"
	case KindPageFlush:
		return "log"
	case KindCkptBegin, KindCkptTrack, KindCkptEnd, KindCkptFail:
		return "checkpoint"
	case KindRootScanBegin, KindRootScanEnd, KindPartRedo, KindSweepBegin, KindSweepEnd,
		KindSweepWorkerBegin, KindSweepWorkerEnd, KindSweepError,
		KindSweepProgress, KindHeatP99Restored, KindRecordQuarantine,
		KindArchiveRebuild:
		return "restart"
	case KindHeatSnapshot:
		return "heat"
	case KindFaultTrigger:
		return "fault"
	case KindNetAccept, KindNetClose, KindNetDispatch, KindNetFlush:
		return "server"
	}
	return "unknown"
}

// epoch anchors the monotonic sim clock. All tracer generations within
// one process share it, so the pre-crash flight-recorder timeline and
// the post-restart timeline are directly comparable.
var epoch = time.Now()

// now returns monotonic nanoseconds since the process epoch.
func now() int64 { return int64(time.Since(epoch)) }

// Event is one trace event. The zero fields of kinds that do not use
// them cost one varint byte each on the wire.
type Event struct {
	TS   int64  // monotonic sim-clock nanoseconds since process start
	Seq  uint64 // per-tracer-generation sequence number
	Kind Kind
	Txn  uint64 // transaction ID, 0 if not transaction-scoped
	Seg  uint64 // partition address: segment
	Part uint64 // partition address: partition number
	LSN  uint64 // log sequence number, 0 if none
	Arg  uint64 // kind-specific (sizes, counts, hit indexes)
	Arg2 uint64 // kind-specific secondary argument
	Str  string // kind-specific label (fault point:act)
}

// String renders the event as one human-readable line.
func (e Event) String() string {
	var b []byte
	b = fmt.Appendf(b, "[%12.3fms] #%-5d %-10s %-15s", float64(e.TS)/1e6, e.Seq, e.Kind.Subsystem(), e.Kind)
	if e.Txn != 0 {
		b = fmt.Appendf(b, " txn=%d", e.Txn)
	}
	if e.Seg != 0 || e.Part != 0 {
		b = fmt.Appendf(b, " part=%d.%d", e.Seg, e.Part)
	}
	if e.LSN != 0 {
		b = fmt.Appendf(b, " lsn=%d", e.LSN)
	}
	if e.Arg != 0 {
		b = fmt.Appendf(b, " arg=%d", e.Arg)
	}
	if e.Arg2 != 0 {
		b = fmt.Appendf(b, " arg2=%d", e.Arg2)
	}
	if e.Str != "" {
		b = fmt.Appendf(b, " %s", e.Str)
	}
	return string(b)
}

// ErrCorrupt reports a malformed event encoding.
var ErrCorrupt = errors.New("trace: corrupt event encoding")

// Events use the same compact varint style as wal.Record: a frame is
// uvarint(payload length) followed by the payload — kind(1), then
// uvarints for TS, Seq, Txn, Seg, Part, LSN, Arg, Arg2, and the label
// length, followed by the label bytes. A typical event is 12–20 bytes.

// appendFrame appends e's framed encoding to dst.
func appendFrame(dst []byte, e *Event) []byte {
	var tmp [binary.MaxVarintLen64]byte
	var payload [10*binary.MaxVarintLen64 + 1]byte
	p := payload[:0]
	p = append(p, byte(e.Kind))
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		p = append(p, tmp[:n]...)
	}
	put(uint64(e.TS))
	put(e.Seq)
	put(e.Txn)
	put(e.Seg)
	put(e.Part)
	put(e.LSN)
	put(e.Arg)
	put(e.Arg2)
	put(uint64(len(e.Str)))
	n := binary.PutUvarint(tmp[:], uint64(len(p)+len(e.Str)))
	dst = append(dst, tmp[:n]...)
	dst = append(dst, p...)
	return append(dst, e.Str...)
}

// decodeFrame parses one framed event from the front of buf, returning
// the event and the bytes consumed. Any inconsistency — short buffer,
// bad kind, payload length disagreeing with the fields — is ErrCorrupt,
// which ring recovery treats as the torn tail.
func decodeFrame(buf []byte) (Event, int, error) {
	plen, hn := binary.Uvarint(buf)
	if hn <= 0 || plen == 0 || plen > uint64(len(buf)-hn) {
		return Event{}, 0, fmt.Errorf("%w: bad frame header", ErrCorrupt)
	}
	payload := buf[hn : hn+int(plen)]
	var e Event
	e.Kind = Kind(payload[0])
	if !e.Kind.Valid() {
		return Event{}, 0, fmt.Errorf("%w: bad kind %d", ErrCorrupt, payload[0])
	}
	pos := 1
	get := func() (uint64, bool) {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	fields := [8]*uint64{nil, &e.Seq, &e.Txn, &e.Seg, &e.Part, &e.LSN, &e.Arg, &e.Arg2}
	ts, ok := get()
	if !ok {
		return Event{}, 0, fmt.Errorf("%w: truncated fields", ErrCorrupt)
	}
	e.TS = int64(ts)
	for _, f := range fields[1:] {
		v, ok := get()
		if !ok {
			return Event{}, 0, fmt.Errorf("%w: truncated fields", ErrCorrupt)
		}
		*f = v
	}
	slen, ok := get()
	if !ok || slen != uint64(len(payload)-pos) {
		return Event{}, 0, fmt.Errorf("%w: label length disagrees with payload", ErrCorrupt)
	}
	e.Str = string(payload[pos:])
	return e, hn + int(plen), nil
}

// Tracer stamps events and writes them into its flight ring. All
// methods are nil-receiver safe and safe for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	seq    uint64 // last sequence number handed out
	sealed bool   // EmitLast wrote the ring's final event
	flight *FlightRing
	enc    []byte // reusable frame-encoding buffer
}

// New creates a tracer writing into flight. Callers that trace nothing
// use a nil *Tracer instead, the free off state.
func New(flight *FlightRing) *Tracer { return &Tracer{flight: flight} }

// Emit records one event, stamping its timestamp and sequence number.
// Nil-safe: the disabled path is a single branch.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.emit(e, false)
}

// EmitLast records e and seals the ring in the same critical section,
// guaranteeing that e is the ring's final event — no concurrent Emit
// can slip in behind it. The fault-injector sink uses it for crash
// triggers. Every event after it, a second EmitLast included, is
// dropped: the first crash wins, and the crashed instance is discarded.
func (t *Tracer) EmitLast(e Event) {
	if t == nil {
		return
	}
	t.emit(e, true)
}

func (t *Tracer) emit(e Event, seal bool) {
	e.TS = now()
	t.mu.Lock()
	// Numbered under the ring lock, so ring order is sequence order: two
	// emitters that took their numbers first could enter in either order.
	if !t.sealed {
		t.seq++
		e.Seq = t.seq
		t.enc = appendFrame(t.enc[:0], &e)
		t.flight.Append(t.enc)
		t.sealed = seal
	}
	t.mu.Unlock()
}

// Events decodes the ring's current contents, oldest first: what a
// crash right now would preserve.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.flight.Events()
}
