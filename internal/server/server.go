// Package server is the mmdb network front-end: a TCP server speaking
// the length-prefixed binary protocol of internal/server/proto, with one
// goroutine per connection and nothing between the socket and the
// transaction.
//
// Architecture (docs/NETWORK.md has the full spec):
//
//   - Each connection is served by exactly one goroutine. It decodes
//     every whole frame the socket has delivered, runs each request in
//     turn as one transaction against the DB, appends the response to
//     the connection's output buffer, and writes that buffer once when
//     no whole frame is left to decode (or at 64 KiB) before it reads
//     again. Pipelined requests therefore share a socket write, and
//     responses leave in request order.
//   - A connection that is executing is not reading: its kernel receive
//     buffer fills, which stalls the client's writes. Backpressure
//     reaches the client with no queue and no flow-control frames.
//   - At most Config.Workers requests execute at once; the others wait
//     for a slot on their own connection's goroutine. Because every
//     connection's transactions meet in the one DB, their commits batch
//     naturally into the epoch group-commit path (PR 5).
//
// The server owns its DB handle: OpCrash crashes and recovers the
// database in place (the recovered instance replaces the old one), and
// Close() lets every connection finish the request it is in, rejects
// the frames behind it with a typed StatusShutdown, and then shuts the
// DB down.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mmdb"
	"mmdb/internal/metrics"
	"mmdb/internal/server/proto"
	"mmdb/internal/trace"
)

// Config tunes the front-end.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral
	// test port).
	Addr string
	// Workers is the number of transactions executing at once; requests
	// beyond it wait on their own connections. Default 8.
	Workers int
}

func (c *Config) fill() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
}

// ErrClosed is returned by Close on a server already closed.
var ErrClosed = errors.New("server: already closed")

// Server is one listening front-end over one DB instance.
type Server struct {
	dbCfg mmdb.Config
	lis   net.Listener

	// dbMu guards the db pointer; a request holds it shared for the
	// duration of its execution so OpCrash can swap in the recovered
	// instance without racing in-flight transactions.
	dbMu       sync.RWMutex
	db         *mmdb.DB
	recovering atomic.Bool

	// draining is set by Close: every frame decoded from then on is
	// answered with StatusShutdown instead of being executed.
	draining atomic.Bool
	// slots bounds the requests executing at once (cap Workers).
	slots chan struct{}

	connMu sync.Mutex
	conns  map[uint64]*conn
	nextID atomic.Uint64

	acceptWg sync.WaitGroup // accept loop
	connWg   sync.WaitGroup // one per connection
	closed   atomic.Bool

	// Server-side observability lives in its own registry (the DB's
	// registry dies with each crash+recover cycle; the server's spans
	// them).
	reg        *metrics.Registry
	mAccepted  *metrics.Counter
	mConns     *metrics.Gauge
	mRequests  *metrics.Counter
	mCorrupt   *metrics.Counter
	mShutdown  *metrics.Counter
	mRecovery  *metrics.Counter
	mCrashes   *metrics.Counter
	mInflight  *metrics.Gauge
	mBytesIn   *metrics.Counter
	mBytesOut  *metrics.Counter
	mFlushes   *metrics.Counter
	mFlushSize *metrics.Histogram
	mOpLat     [proto.NumOps]*metrics.Histogram
}

// New wraps db in a listening server. dbCfg must be the Config db was
// opened with: OpCrash passes it to mmdb.Recover. The server owns db
// from here on — Close() closes the current (possibly recovered)
// instance.
func New(db *mmdb.DB, dbCfg mmdb.Config, cfg Config) (*Server, error) {
	cfg.fill()
	lis, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		dbCfg: dbCfg,
		lis:   lis,
		db:    db,
		slots: make(chan struct{}, cfg.Workers),
		conns: make(map[uint64]*conn),
		reg:   metrics.NewRegistry(),
	}
	// The server registry spans crash+recover cycles, so it also hosts
	// the process-wide runtime telemetry (goroutines, heap, GC pauses,
	// uptime), sampled when the registry is snapshotted.
	metrics.RegisterRuntime(s.reg)
	sub := s.reg.Subsystem("server")
	s.mAccepted = sub.Counter("connections_accepted", "conns", "connections accepted since start")
	s.mConns = sub.Gauge("connections_open", "conns", "currently open connections")
	s.mRequests = sub.Counter("requests", "frames", "request frames decoded")
	s.mCorrupt = sub.Counter("corrupt_frames", "frames", "connections dropped for corrupt frames")
	s.mShutdown = sub.Counter("rejected_shutdown", "frames", "requests rejected with StatusShutdown while draining")
	s.mRecovery = sub.Counter("rejected_recovering", "frames", "requests rejected with StatusRecovering during restart")
	s.mCrashes = sub.Counter("crash_recover_cycles", "cycles", "remote OpCrash crash+recover cycles served")
	s.mInflight = sub.Gauge("inflight", "requests", "requests executing or waiting for an execution slot")
	s.mBytesIn = sub.Counter("bytes_in", "bytes", "request bytes read")
	s.mBytesOut = sub.Counter("bytes_out", "bytes", "response bytes written")
	s.mFlushes = sub.Counter("flushes", "writes", "response socket writes (each may carry many frames)")
	s.mFlushSize = sub.Histogram("flush_bytes", "bytes", "bytes per response socket write")
	for op := proto.Op(1); int(op) < proto.NumOps; op++ {
		s.mOpLat[op] = sub.Histogram("latency_"+op.String(), "ns", "execution latency of "+op.String()+" requests")
	}

	s.acceptWg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// DB returns the current database instance (it changes across remote
// crash+recover cycles).
func (s *Server) DB() *mmdb.DB {
	s.dbMu.RLock()
	defer s.dbMu.RUnlock()
	return s.db
}

// Metrics snapshots the server's own registry (subsystem "server").
func (s *Server) Metrics() metrics.Snapshot { return s.reg.Snapshot() }

// tracer returns the current DB's tracer; nil (a no-op sink) when
// tracing is disabled, and while a crash+recover cycle owns the
// instance — an event must not make a typed rejection wait for the
// restart it reports.
func (s *Server) tracer() *trace.Tracer {
	if !s.dbMu.TryRLock() {
		return nil
	}
	defer s.dbMu.RUnlock()
	if s.db == nil {
		return nil
	}
	return s.db.Manager().Tracer()
}

// Close drains and shuts down: stop accepting, reject new frames with
// StatusShutdown, let every connection finish the request it is
// executing and flush its responses, then close the database.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	_ = s.lis.Close()
	// No connection can register after this: the conns walk below is
	// complete.
	s.acceptWg.Wait()

	s.draining.Store(true)

	// An expired read deadline ends a connection's next (or current)
	// socket read. Its goroutine first finishes the request it is in,
	// answers the frames it had already buffered with StatusShutdown and
	// flushes, so a client that stops sending receives every ack for
	// work the server took on.
	s.connMu.Lock()
	for _, c := range s.conns {
		_ = c.nc.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
	s.connWg.Wait()

	s.dbMu.Lock()
	db := s.db
	s.db = nil
	s.dbMu.Unlock()
	if db == nil {
		return nil
	}
	return db.Close()
}

// ---------------------------------------------------------------------
// Connections.
// ---------------------------------------------------------------------

// conn is one client connection. Only its serve goroutine touches it,
// except that Close expires the socket's read deadline.
type conn struct {
	id     uint64
	nc     net.Conn
	served uint64 // responses written
}

func (s *Server) acceptLoop() {
	defer s.acceptWg.Done()
	for {
		nc, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		c := &conn{id: s.nextID.Add(1), nc: nc}
		s.connMu.Lock()
		s.conns[c.id] = c
		s.connMu.Unlock()
		s.mAccepted.Inc()
		s.mConns.Add(1)
		s.tracer().Emit(trace.Event{Kind: trace.KindNetAccept, Arg: c.id})
		s.connWg.Add(1)
		go s.serve(c)
	}
}

func (s *Server) dropConn(c *conn) {
	_ = c.nc.Close()
	s.connMu.Lock()
	delete(s.conns, c.id)
	s.connMu.Unlock()
	s.mConns.Add(-1)
	s.tracer().Emit(trace.Event{Kind: trace.KindNetClose, Arg: c.id, Arg2: c.served})
}

const (
	// flushCap is the output-buffer size at which responses are written
	// even though more decoded frames are waiting.
	flushCap = 64 << 10
	// readRoom is the least free space offered to one socket read.
	readRoom = 4 << 10
)

// serve is a connection's one goroutine: run every whole frame the
// socket has delivered, write the responses in one batch, read again.
// ErrShort waits for more bytes; ErrCorrupt ends the connection, after
// the frames that decoded cleanly ahead of it have been answered.
func (s *Server) serve(c *conn) {
	defer s.connWg.Done()
	defer s.dropConn(c)
	in := make([]byte, 0, 16<<10)
	var out []byte
	var readErr error
	for {
		start, frames := 0, 0
		var decErr error
		for {
			req, n, err := proto.DecodeRequest(in[start:])
			if err != nil {
				decErr = err
				break
			}
			start += n
			s.mRequests.Inc()
			resp := s.run(c, &req)
			out = proto.AppendResponse(out, &resp)
			frames++
			if len(out) >= flushCap {
				if !s.flush(c, out, frames) {
					return
				}
				out, frames = out[:0], 0
			}
		}
		if frames > 0 && !s.flush(c, out, frames) {
			return
		}
		out = out[:0]
		if !errors.Is(decErr, proto.ErrShort) {
			s.mCorrupt.Inc()
			return
		}
		if readErr != nil {
			// The peer hung up, or Close expired the deadline; whatever
			// whole frames came with the last read are answered above.
			return
		}
		if start > 0 {
			in = append(in[:0], in[start:]...)
		}
		if cap(in)-len(in) < readRoom {
			in = slices.Grow(in, readRoom)
		}
		var n int
		n, readErr = c.nc.Read(in[len(in):cap(in)])
		in = in[:len(in)+n]
		s.mBytesIn.Add(int64(n))
	}
}

// flush writes one batch of n response frames; false means the
// connection is dead.
func (s *Server) flush(c *conn, buf []byte, n int) bool {
	if _, err := c.nc.Write(buf); err != nil {
		return false
	}
	c.served += uint64(n)
	s.mBytesOut.Add(int64(len(buf)))
	s.mFlushes.Inc()
	s.mFlushSize.Observe(int64(len(buf)))
	s.tracer().Emit(trace.Event{Kind: trace.KindNetFlush, Arg: c.id, Arg2: uint64(n), LSN: uint64(len(buf))})
	return true
}

// ---------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------

// run answers one request on its connection's goroutine. The typed
// rejections come first, without waiting for anything: a client learns
// immediately (and measurably — the load rig times this) that the
// request was not executed, even when a crash+recover cycle finds every
// execution slot busy.
func (s *Server) run(c *conn, req *proto.Request) proto.Response {
	var resp proto.Response
	switch {
	case s.draining.Load():
		s.mShutdown.Inc()
		resp = proto.Response{Status: proto.StatusShutdown, Msg: "server draining"}
	case s.recovering.Load():
		resp = s.rejectRecovering()
	default:
		s.mInflight.Add(1)
		s.slots <- struct{}{}
		s.tracer().Emit(trace.Event{Kind: trace.KindNetDispatch, Arg: c.id, Arg2: uint64(req.Op), Txn: req.ID})
		start := time.Now()
		resp = s.execute(req)
		if h := s.mOpLat[req.Op]; h != nil {
			h.Observe(time.Since(start).Nanoseconds())
		}
		<-s.slots
		s.mInflight.Add(-1)
	}
	resp.ID = req.ID
	return resp
}

func (s *Server) rejectRecovering() proto.Response {
	s.mRecovery.Inc()
	return proto.Response{Status: proto.StatusRecovering, Msg: "restart in progress"}
}

// execute runs one request to a response. OpCrash is the only request
// that takes the db lock exclusively; everything else executes under a
// shared hold so the instance cannot be swapped mid-transaction.
func (s *Server) execute(req *proto.Request) proto.Response {
	if req.Op == proto.OpCrash {
		return s.crashRecover()
	}
	// A crash that began while this request waited for its slot rejects
	// it the same way, instead of letting it block on the db lock.
	if s.recovering.Load() {
		return s.rejectRecovering()
	}
	s.dbMu.RLock()
	defer s.dbMu.RUnlock()
	if s.db == nil {
		return proto.Response{Status: proto.StatusShutdown, Msg: "server closed"}
	}
	return s.handle(s.db, req)
}

// crashRecover serves OpCrash: halt the simulated machine, lose every
// volatile structure, and rebuild from the crash-surviving hardware —
// §2.5 restart while the server keeps answering (with typed
// StatusRecovering rejections) on every connection.
func (s *Server) crashRecover() proto.Response {
	if !s.recovering.CompareAndSwap(false, true) {
		return s.rejectRecovering()
	}
	defer s.recovering.Store(false)
	start := time.Now()
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	if s.db == nil {
		return proto.Response{Status: proto.StatusShutdown, Msg: "server closed"}
	}
	hw := s.db.Crash()
	s.dbCfg.FaultInjector.ClearCrash() // power the simulated machine back on
	db, err := mmdb.Recover(hw, s.dbCfg)
	if err != nil {
		// The database is gone and could not be rebuilt; leave db nil
		// so every later request gets a clean typed error instead of a
		// crash loop.
		s.db = nil
		return proto.Response{Status: proto.StatusError, Msg: "recover failed: " + err.Error()}
	}
	s.db = db
	s.mCrashes.Inc()
	return proto.Response{Status: proto.StatusOK, N: uint64(time.Since(start).Microseconds())}
}

// ---------------------------------------------------------------------
// Request handlers.
// ---------------------------------------------------------------------

// statusOf maps an mmdb error to a wire status.
func statusOf(err error) proto.Status {
	switch {
	case errors.Is(err, mmdb.ErrNotFound):
		return proto.StatusNotFound
	case errors.Is(err, mmdb.ErrExists):
		return proto.StatusExists
	case errors.Is(err, mmdb.ErrDeadlock):
		return proto.StatusDeadlock
	case errors.Is(err, mmdb.ErrClosed):
		return proto.StatusRecovering
	}
	return proto.StatusError
}

func fail(err error) proto.Response {
	return proto.Response{Status: statusOf(err), Msg: err.Error()}
}

func badRequest(msg string) proto.Response {
	return proto.Response{Status: proto.StatusBadRequest, Msg: msg}
}

// deadlockRetries bounds transparent retries of deadlocked
// transactions before the typed StatusDeadlock reaches the client.
const deadlockRetries = 8

// withTxn runs fn in a transaction, committing on success and retrying
// the whole transaction on deadlock. fn must rebuild all state on each
// attempt.
func withTxn(db *mmdb.DB, fn func(tx *mmdb.Txn) error) error {
	var err error
	for attempt := 0; attempt < deadlockRetries; attempt++ {
		tx := db.Begin()
		err = fn(tx)
		if err == nil {
			if err = tx.Commit(); err == nil {
				return nil
			}
		}
		_ = tx.Abort()
		if !errors.Is(err, mmdb.ErrDeadlock) {
			return err
		}
	}
	return err
}

func wireRow(id mmdb.RowID) proto.Row {
	return proto.Row{Seg: uint32(id.Segment), Part: uint32(id.Part), Slot: uint16(id.Slot)}
}

func rowID(r proto.Row) mmdb.RowID {
	return mmdb.NewRowID(r.Seg, r.Part, r.Slot)
}

func (s *Server) handle(db *mmdb.DB, req *proto.Request) proto.Response {
	switch req.Op {
	case proto.OpPing:
		return proto.Response{Status: proto.StatusOK}

	case proto.OpCreateRel:
		if len(req.Cols) == 0 {
			return badRequest("create-rel: empty schema")
		}
		schema := make(mmdb.Schema, len(req.Cols))
		for i, c := range req.Cols {
			schema[i] = mmdb.Column{Name: c.Name, Type: mmdb.ColType(c.Type)}
		}
		if _, err := db.CreateRelation(req.Rel, schema); err != nil {
			return fail(err)
		}
		return proto.Response{Status: proto.StatusOK}

	case proto.OpCreateIndex:
		rel, err := db.GetRelation(req.Rel)
		if err != nil {
			return fail(err)
		}
		kind := mmdb.IndexKind(req.Kind)
		if kind != mmdb.KindTTree && kind != mmdb.KindLinHash {
			return badRequest(fmt.Sprintf("create-index: unknown kind %d", req.Kind))
		}
		if _, err := db.CreateIndex(rel, req.Idx, req.Col, kind, int(req.Order)); err != nil {
			return fail(err)
		}
		return proto.Response{Status: proto.StatusOK}

	case proto.OpInsert:
		rel, err := db.GetRelation(req.Rel)
		if err != nil {
			return fail(err)
		}
		var addr mmdb.RowID
		err = withTxn(db, func(tx *mmdb.Txn) error {
			addr, err = tx.Insert(rel, mmdb.Tuple(req.Vals))
			return err
		})
		if err != nil {
			return fail(err)
		}
		return proto.Response{Status: proto.StatusOK, Addr: wireRow(addr)}

	case proto.OpGet:
		rel, err := db.GetRelation(req.Rel)
		if err != nil {
			return fail(err)
		}
		var tup mmdb.Tuple
		err = withTxn(db, func(tx *mmdb.Txn) error {
			tup, err = tx.Get(rel, rowID(req.Addr))
			return err
		})
		if err != nil {
			return fail(err)
		}
		return proto.Response{Status: proto.StatusOK, Tuple: tup}

	case proto.OpUpdate:
		rel, err := db.GetRelation(req.Rel)
		if err != nil {
			return fail(err)
		}
		if len(req.Cols) == 0 || len(req.Cols) != len(req.Vals) {
			return badRequest("update: column/value mismatch")
		}
		changes := make(map[string]any, len(req.Cols))
		for i, c := range req.Cols {
			changes[c.Name] = req.Vals[i]
		}
		err = withTxn(db, func(tx *mmdb.Txn) error {
			return tx.Update(rel, rowID(req.Addr), changes)
		})
		if err != nil {
			return fail(err)
		}
		return proto.Response{Status: proto.StatusOK}

	case proto.OpDelete:
		rel, err := db.GetRelation(req.Rel)
		if err != nil {
			return fail(err)
		}
		err = withTxn(db, func(tx *mmdb.Txn) error {
			return tx.Delete(rel, rowID(req.Addr))
		})
		if err != nil {
			return fail(err)
		}
		return proto.Response{Status: proto.StatusOK}

	case proto.OpLookup:
		rel, err := db.GetRelation(req.Rel)
		if err != nil {
			return fail(err)
		}
		idx := rel.Index(req.Idx)
		if idx == nil {
			return fail(fmt.Errorf("%w: index %q", mmdb.ErrNotFound, req.Idx))
		}
		if len(req.Vals) != 1 {
			return badRequest("lookup: want exactly one key")
		}
		var rows []proto.RowTuple
		err = withTxn(db, func(tx *mmdb.Txn) error {
			rows = rows[:0]
			return tx.IndexLookup(idx, req.Vals[0], func(id mmdb.RowID, tup mmdb.Tuple) bool {
				rows = append(rows, proto.RowTuple{Addr: wireRow(id), Tuple: tup})
				return len(rows) < proto.MaxRows
			})
		})
		if err != nil {
			return fail(err)
		}
		return proto.Response{Status: proto.StatusOK, Rows: rows, N: uint64(len(rows))}

	case proto.OpScan:
		rel, err := db.GetRelation(req.Rel)
		if err != nil {
			return fail(err)
		}
		limit := int(req.Limit)
		if limit <= 0 || limit > proto.MaxRows {
			limit = proto.MaxRows
		}
		var rows []proto.RowTuple
		err = withTxn(db, func(tx *mmdb.Txn) error {
			rows = rows[:0]
			return tx.Scan(rel, func(id mmdb.RowID, tup mmdb.Tuple) bool {
				rows = append(rows, proto.RowTuple{Addr: wireRow(id), Tuple: tup})
				return len(rows) < limit
			})
		})
		if err != nil {
			return fail(err)
		}
		return proto.Response{Status: proto.StatusOK, Rows: rows, N: uint64(len(rows))}

	case proto.OpSchema:
		rel, err := db.GetRelation(req.Rel)
		if err != nil {
			return fail(err)
		}
		schema := rel.Schema()
		cols := make([]proto.Col, len(schema))
		for i, c := range schema {
			cols[i] = proto.Col{Name: c.Name, Type: byte(c.Type)}
		}
		return proto.Response{Status: proto.StatusOK, Schema: cols}

	case proto.OpDebitCredit:
		return s.debitCredit(db, req)

	case proto.OpMetrics:
		// One snapshot spanning the DB's registry (dies with each crash
		// cycle) and the server's own (spans them).
		snap := db.Metrics()
		snap.Subsystems = append(snap.Subsystems, s.reg.Snapshot().Subsystems...)
		blob, err := json.Marshal(snap)
		if err != nil {
			return fail(err)
		}
		return proto.Response{Status: proto.StatusOK, Blob: blob}
	}
	return badRequest("unhandled opcode " + req.Op.String())
}

// debitCredit is the composite Gray-style transaction: move Delta
// through an account, its teller and branch, and append a history row —
// four record touches, one commit, one round trip. The relations are
// the load-rig schema documented in docs/NETWORK.md; each must carry a
// "pk" index on its id column.
//
// The account row stores max(stored seq, request seq): concurrent
// transactions on one account may commit out of submission order, and
// the max keeps the stored sequence from regressing below any number
// the server already acknowledged — the invariant the load rig's
// client-side ack log checks after a crash.
func (s *Server) debitCredit(db *mmdb.DB, req *proto.Request) proto.Response {
	accounts, err := db.GetRelation("accounts")
	if err != nil {
		return fail(err)
	}
	tellers, err := db.GetRelation("tellers")
	if err != nil {
		return fail(err)
	}
	branches, err := db.GetRelation("branches")
	if err != nil {
		return fail(err)
	}
	history, err := db.GetRelation("history")
	if err != nil {
		return fail(err)
	}
	accPK := accounts.Index("pk")
	telPK := tellers.Index("pk")
	brPK := branches.Index("pk")
	if accPK == nil || telPK == nil || brPK == nil {
		return fail(fmt.Errorf("%w: debit-credit pk indexes", mmdb.ErrNotFound))
	}

	findOne := func(tx *mmdb.Txn, idx *mmdb.Index, key int64) (mmdb.RowID, mmdb.Tuple, error) {
		var id mmdb.RowID
		var tup mmdb.Tuple
		found := false
		err := tx.IndexLookup(idx, key, func(i mmdb.RowID, t mmdb.Tuple) bool {
			id, tup, found = i, t, true
			return false
		})
		if err != nil {
			return id, nil, err
		}
		if !found {
			return id, nil, fmt.Errorf("%w: %s %d", mmdb.ErrNotFound, idx.Relation().Name(), key)
		}
		return id, tup, nil
	}

	var newBal float64
	var newSeq uint64
	err = withTxn(db, func(tx *mmdb.Txn) error {
		accID, accTup, err := findOne(tx, accPK, req.Account)
		if err != nil {
			return err
		}
		bal, _ := accTup[1].(float64)
		stored, _ := accTup[2].(int64)
		newBal = bal + req.Delta
		newSeq = req.Seq
		if uint64(stored) > newSeq {
			newSeq = uint64(stored)
		}
		if err := tx.Update(accounts, accID, map[string]any{"bal": newBal, "seq": int64(newSeq)}); err != nil {
			return err
		}
		telID, telTup, err := findOne(tx, telPK, req.Teller)
		if err != nil {
			return err
		}
		tbal, _ := telTup[1].(float64)
		if err := tx.Update(tellers, telID, map[string]any{"bal": tbal + req.Delta}); err != nil {
			return err
		}
		brID, brTup, err := findOne(tx, brPK, req.Branch)
		if err != nil {
			return err
		}
		bbal, _ := brTup[1].(float64)
		if err := tx.Update(branches, brID, map[string]any{"bal": bbal + req.Delta}); err != nil {
			return err
		}
		_, err = tx.Insert(history, mmdb.Tuple{req.Account, req.Teller, req.Branch, req.Delta})
		return err
	})
	if err != nil {
		return fail(err)
	}
	return proto.Response{Status: proto.StatusOK, Seq: newSeq, Val: newBal}
}
