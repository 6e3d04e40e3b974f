// Package proto defines the wire protocol of the mmdb network
// front-end: simple length-prefixed binary frames carrying requests
// and responses between a pipelining client and the server.
//
// A frame is uvarint(payload length) followed by the payload, the same
// compact framing style as internal/trace events and wal records. The
// payload of a request is
//
//	id uvarint · opcode(1) · op-specific fields
//
// and of a response
//
//	id uvarint · status(1) · status-specific fields
//
// where every integer is a uvarint, every string a uvarint length plus
// bytes, and every typed value a tag byte (int/float/string) plus its
// encoding. Request IDs are chosen by the client and echoed verbatim;
// the server may answer pipelined requests out of order, so the ID is
// the only correlation between the two directions.
//
// Decoding follows the torn-tail discipline of internal/trace frame
// decoding: a decoder distinguishes "frame not complete yet" (ErrShort
// — read more bytes and retry) from "frame can never be valid"
// (ErrCorrupt — the connection is poisoned and must be dropped), and
// no input, however malicious or truncated, may panic or cause an
// unbounded allocation. Every length read off the wire is checked
// against MaxFrame and the per-field caps before any allocation.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// MaxFrame is the largest legal frame payload. A length prefix beyond
// it is corruption (or abuse) by definition, so a decoder can reject
// it before allocating anything.
const MaxFrame = 1 << 20

// Field caps, enforced on decode so a hostile frame cannot demand
// unbounded allocation: a relation has at most MaxCols columns, a
// lookup/scan response at most MaxRows rows, and any string at most
// MaxString bytes.
const (
	MaxCols   = 256
	MaxRows   = 4096
	MaxString = 1 << 16
)

// Op is a request opcode.
type Op byte

// The opcode catalog. CRUD opcodes operate on one relation named in
// the request; DebitCredit is the composite Gray-style transaction
// (account + teller + branch update plus a history append) used by the
// load rig so one round trip costs one transaction; Crash asks the
// server to crash and recover its database in place (admin/testing);
// Metrics returns a JSON metrics snapshot.
const (
	OpInvalid Op = iota
	OpPing
	OpCreateRel
	OpCreateIndex
	OpInsert
	OpGet
	OpUpdate
	OpDelete
	OpLookup
	OpScan
	OpSchema
	OpDebitCredit
	OpCrash
	OpMetrics
	opMax
)

var opNames = [...]string{
	OpInvalid:     "invalid",
	OpPing:        "ping",
	OpCreateRel:   "create-rel",
	OpCreateIndex: "create-index",
	OpInsert:      "insert",
	OpGet:         "get",
	OpUpdate:      "update",
	OpDelete:      "delete",
	OpLookup:      "lookup",
	OpScan:        "scan",
	OpSchema:      "schema",
	OpDebitCredit: "debit-credit",
	OpCrash:       "crash",
	OpMetrics:     "metrics",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o > OpInvalid && o < opMax }

// NumOps is the number of defined opcodes (for per-opcode metric
// arrays indexed by Op).
const NumOps = int(opMax)

// Status is a response status code. Anything but StatusOK carries a
// human-readable message in Response.Msg.
type Status byte

// Response statuses. StatusShutdown is the typed rejection a draining
// server sends for frames that arrive after Close began; StatusRecovering
// is the typed rejection during a crash+restart window — both tell the
// client the request was NOT executed and may be retried elsewhere or
// later.
const (
	StatusOK Status = iota
	StatusError
	StatusNotFound
	StatusExists
	StatusDeadlock
	StatusBadRequest
	StatusShutdown
	StatusRecovering
	statusMax
)

var statusNames = [...]string{
	StatusOK:         "ok",
	StatusError:      "error",
	StatusNotFound:   "not-found",
	StatusExists:     "exists",
	StatusDeadlock:   "deadlock",
	StatusBadRequest: "bad-request",
	StatusShutdown:   "shutting-down",
	StatusRecovering: "recovering",
}

func (s Status) String() string {
	if int(s) < len(statusNames) && statusNames[s] != "" {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", byte(s))
}

// Valid reports whether s is a defined status.
func (s Status) Valid() bool { return s < statusMax }

// Errors returned by the codec.
var (
	// ErrShort means the buffer does not yet hold a complete frame;
	// the caller should read more bytes and retry.
	ErrShort = errors.New("proto: incomplete frame")
	// ErrCorrupt means the frame can never become valid: bad length,
	// bad opcode, field lengths disagreeing with the payload. The
	// connection carrying it must be dropped.
	ErrCorrupt = errors.New("proto: corrupt frame")
)

// Row addresses a stored tuple on the wire (segment, partition, slot).
type Row struct {
	Seg  uint32
	Part uint32
	Slot uint16
}

// Col is one schema column on the wire. Type uses the heap.ColType
// values (1 int64, 2 float64, 3 string).
type Col struct {
	Name string
	Type byte
}

// Request is one client request. Only the fields the opcode uses are
// encoded; see the per-opcode field table in docs/NETWORK.md.
type Request struct {
	ID uint64
	Op Op

	Rel   string // CreateRel, CreateIndex, Insert, Get, Update, Delete, Lookup, Scan, Schema
	Idx   string // CreateIndex (index name), Lookup
	Col   string // CreateIndex (column name)
	Kind  byte   // CreateIndex (index kind: heap/catalog IndexKind)
	Order uint32 // CreateIndex (node order, 0 default)

	Cols []Col // CreateRel (schema); Update (changed columns, Name only)
	Vals []any // Insert (tuple), Update (new values, aligned with Cols), Lookup (key at [0])

	Addr  Row    // Get, Update, Delete
	Limit uint32 // Scan (max rows returned, 0 = server default)

	// DebitCredit fields: the composite transaction updates account,
	// teller and branch balances by Delta and appends a history row.
	// Seq is the client's per-account sequence number; the server
	// stores max(stored, Seq) so a client-side ack log can verify
	// durability after a crash.
	Account, Teller, Branch int64
	Delta                   float64
	Seq                     uint64
}

// Response is one server response, correlated to its request by ID.
type Response struct {
	ID     uint64
	Status Status
	Msg    string // non-OK: human-readable error

	Addr   Row   // Insert: new row address
	Tuple  []any // Get: the tuple
	Rows   []RowTuple
	Schema []Col   // Schema
	Seq    uint64  // DebitCredit: the sequence number now stored
	Val    float64 // DebitCredit: resulting account balance
	N      uint64  // Crash: recovery micros; Scan: rows scanned before limit
	Blob   []byte  // Metrics: JSON snapshot
}

// RowTuple is one row of a Lookup/Scan result.
type RowTuple struct {
	Addr  Row
	Tuple []any
}

// ---------------------------------------------------------------------
// Encoding. append* helpers build payloads; the frame layer prefixes
// the uvarint length.
// ---------------------------------------------------------------------

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst []byte, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// Value tags on the wire.
const (
	tagInt    = 1
	tagFloat  = 2
	tagString = 3
)

// appendValue encodes one typed value. Unsupported dynamic types
// encode as an empty string: the server will reject them with a schema
// mismatch, which beats a client-side panic.
func appendValue(dst []byte, v any) []byte {
	switch x := v.(type) {
	case int64:
		dst = append(dst, tagInt)
		return appendUvarint(dst, uint64(x))
	case float64:
		dst = append(dst, tagFloat)
		return appendUvarint(dst, math.Float64bits(x))
	case string:
		dst = append(dst, tagString)
		return appendString(dst, x)
	default:
		dst = append(dst, tagString)
		return appendString(dst, "")
	}
}

func appendVals(dst []byte, vals []any) []byte {
	dst = appendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = appendValue(dst, v)
	}
	return dst
}

func appendRow(dst []byte, r Row) []byte {
	dst = appendUvarint(dst, uint64(r.Seg))
	dst = appendUvarint(dst, uint64(r.Part))
	return appendUvarint(dst, uint64(r.Slot))
}

func appendCols(dst []byte, cols []Col) []byte {
	dst = appendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		dst = appendString(dst, c.Name)
		dst = append(dst, c.Type)
	}
	return dst
}

// AppendRequest appends r's framed encoding to dst.
func AppendRequest(dst []byte, r *Request) []byte {
	var p []byte
	p = appendUvarint(p, r.ID)
	p = append(p, byte(r.Op))
	switch r.Op {
	case OpPing, OpCrash, OpMetrics:
		// header only
	case OpCreateRel:
		p = appendString(p, r.Rel)
		p = appendCols(p, r.Cols)
	case OpCreateIndex:
		p = appendString(p, r.Rel)
		p = appendString(p, r.Idx)
		p = appendString(p, r.Col)
		p = append(p, r.Kind)
		p = appendUvarint(p, uint64(r.Order))
	case OpInsert:
		p = appendString(p, r.Rel)
		p = appendVals(p, r.Vals)
	case OpGet, OpDelete:
		p = appendString(p, r.Rel)
		p = appendRow(p, r.Addr)
	case OpUpdate:
		p = appendString(p, r.Rel)
		p = appendRow(p, r.Addr)
		p = appendCols(p, r.Cols)
		p = appendVals(p, r.Vals)
	case OpLookup:
		p = appendString(p, r.Rel)
		p = appendString(p, r.Idx)
		p = appendVals(p, r.Vals)
	case OpScan:
		p = appendString(p, r.Rel)
		p = appendUvarint(p, uint64(r.Limit))
	case OpSchema:
		p = appendString(p, r.Rel)
	case OpDebitCredit:
		p = appendUvarint(p, uint64(r.Account))
		p = appendUvarint(p, uint64(r.Teller))
		p = appendUvarint(p, uint64(r.Branch))
		p = appendUvarint(p, math.Float64bits(r.Delta))
		p = appendUvarint(p, r.Seq)
	}
	dst = appendUvarint(dst, uint64(len(p)))
	return append(dst, p...)
}

// AppendResponse appends r's framed encoding to dst.
func AppendResponse(dst []byte, r *Response) []byte {
	var p []byte
	p = appendUvarint(p, r.ID)
	p = append(p, byte(r.Status))
	if r.Status != StatusOK {
		p = appendString(p, r.Msg)
		dst = appendUvarint(dst, uint64(len(p)))
		return append(dst, p...)
	}
	p = appendRow(p, r.Addr)
	p = appendVals(p, r.Tuple)
	p = appendUvarint(p, uint64(len(r.Rows)))
	for _, rt := range r.Rows {
		p = appendRow(p, rt.Addr)
		p = appendVals(p, rt.Tuple)
	}
	p = appendCols(p, r.Schema)
	p = appendUvarint(p, r.Seq)
	p = appendUvarint(p, math.Float64bits(r.Val))
	p = appendUvarint(p, r.N)
	p = appendBytes(p, r.Blob)
	dst = appendUvarint(dst, uint64(len(p)))
	return append(dst, p...)
}

// ---------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------

// frame splits one frame's payload off the front of buf, returning the
// payload and the total bytes consumed (header + payload). ErrShort
// when buf does not yet hold the whole frame; ErrCorrupt when the
// length prefix is invalid.
func frame(buf []byte) ([]byte, int, error) {
	plen, hn := binary.Uvarint(buf)
	if hn == 0 {
		return nil, 0, ErrShort // empty or mid-varint: need more bytes
	}
	if hn < 0 || plen == 0 || plen > MaxFrame {
		return nil, 0, fmt.Errorf("%w: bad frame length", ErrCorrupt)
	}
	if uint64(len(buf)-hn) < plen {
		return nil, 0, ErrShort
	}
	return buf[hn : hn+int(plen)], hn + int(plen), nil
}

// reader walks one frame payload. It keeps the first corruption it
// meets and empties itself, so every later read returns zero: a decoder
// reads its fields straight through and checks once, at done. Every
// length is checked against its cap and the payload before it drives an
// allocation.
type reader struct {
	buf []byte
	pos int
	err error
}

// fail records the first corruption and ends the payload.
func (d *reader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
	d.pos = len(d.buf)
}

func (d *reader) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.pos += n
	return v
}

func (d *reader) float() float64 { return math.Float64frombits(d.uvarint()) }

func (d *reader) byte() byte {
	if d.pos >= len(d.buf) {
		d.fail("truncated byte")
		return 0
	}
	d.pos++
	return d.buf[d.pos-1]
}

// take returns the next n bytes of a field whose length n was read off
// the wire, in place; limit caps n.
func (d *reader) take(limit uint64, what string) []byte {
	n := d.uvarint()
	if n > limit || n > uint64(len(d.buf)-d.pos) {
		d.fail("%s length %d exceeds payload", what, n)
		return nil
	}
	d.pos += int(n)
	return d.buf[d.pos-int(n) : d.pos]
}

func (d *reader) string() string { return string(d.take(MaxString, "string")) }

func (d *reader) bytes() []byte { return append([]byte(nil), d.take(MaxFrame, "blob")...) }

func (d *reader) value() any {
	switch tag := d.byte(); tag {
	case tagInt:
		return int64(d.uvarint())
	case tagFloat:
		return d.float()
	case tagString:
		return d.string()
	default:
		d.fail("bad value tag %d", tag)
		return nil
	}
}

func (d *reader) vals() []any {
	n := d.uvarint()
	if n > MaxCols*4 || n > uint64(len(d.buf)-d.pos) {
		d.fail("%d values exceed payload", n)
	}
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]any, n)
	for i := range out {
		out[i] = d.value()
	}
	return out
}

func (d *reader) row() Row {
	seg, part, slot := d.uvarint(), d.uvarint(), d.uvarint()
	if seg > math.MaxUint32 || part > math.MaxUint32 || slot > math.MaxUint16 {
		d.fail("row address out of range")
	}
	return Row{Seg: uint32(seg), Part: uint32(part), Slot: uint16(slot)}
}

func (d *reader) cols() []Col {
	n := d.uvarint()
	if n > MaxCols {
		d.fail("%d columns exceeds cap", n)
	}
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]Col, n)
	for i := range out {
		out[i] = Col{Name: d.string(), Type: d.byte()}
	}
	return out
}

// done reports the first corruption, or trailing garbage when the whole
// payload was not consumed, exactly like the trace decoder's
// label-length check.
func (d *reader) done() error {
	if d.err == nil && d.pos != len(d.buf) {
		d.fail("%d trailing bytes", len(d.buf)-d.pos)
	}
	return d.err
}

// DecodeRequest parses one framed request from the front of buf,
// returning the request and the bytes consumed. ErrShort means "read
// more and retry"; ErrCorrupt means the stream is unrecoverable.
func DecodeRequest(buf []byte) (Request, int, error) {
	payload, n, err := frame(buf)
	if err != nil {
		return Request{}, 0, err
	}
	d := reader{buf: payload}
	r := Request{ID: d.uvarint(), Op: Op(d.byte())}
	if !r.Op.Valid() {
		d.fail("bad opcode %d", byte(r.Op))
	}
	switch r.Op {
	case OpCreateRel:
		r.Rel, r.Cols = d.string(), d.cols()
	case OpCreateIndex:
		r.Rel, r.Idx, r.Col, r.Kind = d.string(), d.string(), d.string(), d.byte()
		order := d.uvarint()
		if order > math.MaxUint32 {
			d.fail("index order out of range")
		}
		r.Order = uint32(order)
	case OpInsert:
		r.Rel, r.Vals = d.string(), d.vals()
	case OpGet, OpDelete:
		r.Rel, r.Addr = d.string(), d.row()
	case OpUpdate:
		r.Rel, r.Addr, r.Cols, r.Vals = d.string(), d.row(), d.cols(), d.vals()
	case OpLookup:
		r.Rel, r.Idx, r.Vals = d.string(), d.string(), d.vals()
	case OpScan:
		r.Rel, r.Limit = d.string(), uint32(min(d.uvarint(), MaxRows))
	case OpSchema:
		r.Rel = d.string()
	case OpDebitCredit:
		r.Account, r.Teller, r.Branch = int64(d.uvarint()), int64(d.uvarint()), int64(d.uvarint())
		r.Delta, r.Seq = d.float(), d.uvarint()
	}
	if err := d.done(); err != nil {
		return Request{}, 0, err
	}
	return r, n, nil
}

// DecodeResponse parses one framed response from the front of buf,
// returning the response and the bytes consumed. Error semantics match
// DecodeRequest.
func DecodeResponse(buf []byte) (Response, int, error) {
	payload, n, err := frame(buf)
	if err != nil {
		return Response{}, 0, err
	}
	d := reader{buf: payload}
	r := Response{ID: d.uvarint(), Status: Status(d.byte())}
	switch {
	case !r.Status.Valid():
		d.fail("bad status %d", byte(r.Status))
	case r.Status != StatusOK:
		r.Msg = d.string()
	default:
		r.Addr, r.Tuple = d.row(), d.vals()
		nrows := d.uvarint()
		if nrows > MaxRows {
			d.fail("%d rows exceeds cap", nrows)
		}
		for ; nrows > 0 && d.err == nil; nrows-- {
			r.Rows = append(r.Rows, RowTuple{Addr: d.row(), Tuple: d.vals()})
		}
		r.Schema, r.Seq, r.Val, r.N, r.Blob = d.cols(), d.uvarint(), d.float(), d.uvarint(), d.bytes()
	}
	if err := d.done(); err != nil {
		return Response{}, 0, err
	}
	return r, n, nil
}
