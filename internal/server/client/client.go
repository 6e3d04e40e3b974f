// Package client is the pipelining client for the mmdb network
// front-end. A Conn multiplexes any number of in-flight requests over
// one TCP connection: Send returns immediately with a Pending handle,
// responses are matched back by request ID alone (the server answers a
// connection in request order; nothing here relies on it), and a writer
// goroutine coalesces queued requests into batched socket writes, which
// is what keeps Send from blocking on the network. Pool spreads load
// over several connections round-robin.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mmdb/internal/server/proto"
)

// ErrConnClosed is reported by requests outstanding when the
// connection closes locally.
var ErrConnClosed = errors.New("client: connection closed")

// StatusError is a typed non-OK response: the server executed nothing
// and said why. Status distinguishes retryable rejections (deadlock,
// draining, recovering) from hard errors.
type StatusError struct {
	Status proto.Status
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server: %s: %s", e.Status, e.Msg)
}

// HasStatus reports whether err is a StatusError carrying st.
func HasStatus(err error, st proto.Status) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == st
}

// result delivers a response or a transport error to a waiter.
type result struct {
	resp proto.Response
	err  error
}

// Pending is an in-flight request handle.
type Pending struct {
	ch chan result
}

// Wait blocks for the response. A transport failure (not a server
// status) comes back as the error; a non-OK status is returned in the
// response with a nil error — use Response.Err or the typed wrappers.
func (p *Pending) Wait() (proto.Response, error) {
	r := <-p.ch
	return r.resp, r.err
}

// Err converts a non-OK response into a *StatusError (nil for OK).
func Err(r proto.Response) error {
	if r.Status == proto.StatusOK {
		return nil
	}
	return &StatusError{Status: r.Status, Msg: r.Msg}
}

// Conn is one pipelining connection. Safe for concurrent use.
type Conn struct {
	nc   net.Conn
	out  chan proto.Request
	done chan struct{}

	mu      sync.Mutex
	pending map[uint64]chan result
	err     error

	nextID    atomic.Uint64
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Dial connects to a server.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		nc:      nc,
		out:     make(chan proto.Request, 256),
		done:    make(chan struct{}),
		pending: make(map[uint64]chan result),
	}
	c.wg.Add(2)
	go c.writeLoop()
	go c.readLoop()
	return c, nil
}

// Close tears the connection down; outstanding requests fail with
// ErrConnClosed. Wait for acks you care about before closing.
func (c *Conn) Close() error {
	c.fail(ErrConnClosed)
	c.wg.Wait()
	return nil
}

// fail poisons the connection: record the first error, wake every
// waiter, close the socket.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	err = c.err
	pend := c.pending
	c.pending = make(map[uint64]chan result)
	c.mu.Unlock()
	c.closeOnce.Do(func() {
		close(c.done)
		_ = c.nc.Close()
	})
	for _, ch := range pend {
		ch <- result{err: err}
	}
}

// Send pipelines one request, assigning its ID. Never blocks on the
// network round trip; blocks only if the outbound queue is full.
func (c *Conn) Send(req proto.Request) *Pending {
	ch := make(chan result, 1)
	req.ID = c.nextID.Add(1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		ch <- result{err: err}
		return &Pending{ch: ch}
	}
	// Register before the bytes can hit the wire: a fast server could
	// answer before Send returns.
	c.pending[req.ID] = ch
	c.mu.Unlock()
	select {
	case c.out <- req:
	case <-c.done:
		c.mu.Lock()
		delete(c.pending, req.ID)
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrConnClosed
		}
		ch <- result{err: err}
	}
	return &Pending{ch: ch}
}

// Do sends one request and waits. Transport failures come back as the
// error; non-OK statuses as *StatusError.
func (c *Conn) Do(req proto.Request) (proto.Response, error) {
	resp, err := c.Send(req).Wait()
	if err != nil {
		return resp, err
	}
	return resp, Err(resp)
}

// writeLoop coalesces queued requests into batched socket writes.
func (c *Conn) writeLoop() {
	defer c.wg.Done()
	const flushCap = 64 << 10
	buf := make([]byte, 0, flushCap)
	for {
		var req proto.Request
		select {
		case req = <-c.out:
		case <-c.done:
			return
		}
		buf = proto.AppendRequest(buf[:0], &req)
	drain:
		for len(buf) < flushCap {
			select {
			case r2 := <-c.out:
				buf = proto.AppendRequest(buf, &r2)
			default:
				break drain
			}
		}
		if _, err := c.nc.Write(buf); err != nil {
			c.fail(err)
			return
		}
	}
}

// readLoop decodes responses and hands them to their waiters.
func (c *Conn) readLoop() {
	defer c.wg.Done()
	buf := make([]byte, 0, 16<<10)
	tmp := make([]byte, 32<<10)
	start := 0
	for {
		for {
			resp, n, err := proto.DecodeResponse(buf[start:])
			if errors.Is(err, proto.ErrShort) {
				break
			}
			if err != nil {
				c.fail(err)
				return
			}
			start += n
			c.mu.Lock()
			ch := c.pending[resp.ID]
			delete(c.pending, resp.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- result{resp: resp}
			}
		}
		if start > 0 {
			buf = append(buf[:0], buf[start:]...)
			start = 0
		}
		n, err := c.nc.Read(tmp)
		if n > 0 {
			buf = append(buf, tmp[:n]...)
		}
		if err != nil {
			c.fail(err)
			return
		}
	}
}

// ---------------------------------------------------------------------
// Typed convenience wrappers (one round trip each).
// ---------------------------------------------------------------------

// Ping round-trips an empty frame.
func (c *Conn) Ping() error {
	_, err := c.Do(proto.Request{Op: proto.OpPing})
	return err
}

// CreateRelation creates a relation with the given wire schema.
func (c *Conn) CreateRelation(rel string, cols []proto.Col) error {
	_, err := c.Do(proto.Request{Op: proto.OpCreateRel, Rel: rel, Cols: cols})
	return err
}

// CreateIndex creates an index (kind: catalog IndexKind byte).
func (c *Conn) CreateIndex(rel, idx, col string, kind byte, order uint32) error {
	_, err := c.Do(proto.Request{Op: proto.OpCreateIndex, Rel: rel, Idx: idx, Col: col, Kind: kind, Order: order})
	return err
}

// Insert adds one tuple, returning its row address.
func (c *Conn) Insert(rel string, vals []any) (proto.Row, error) {
	resp, err := c.Do(proto.Request{Op: proto.OpInsert, Rel: rel, Vals: vals})
	return resp.Addr, err
}

// Get reads one tuple by row address.
func (c *Conn) Get(rel string, addr proto.Row) ([]any, error) {
	resp, err := c.Do(proto.Request{Op: proto.OpGet, Rel: rel, Addr: addr})
	return resp.Tuple, err
}

// Update applies column changes to one row.
func (c *Conn) Update(rel string, addr proto.Row, cols []string, vals []any) error {
	wc := make([]proto.Col, len(cols))
	for i, n := range cols {
		wc[i] = proto.Col{Name: n}
	}
	_, err := c.Do(proto.Request{Op: proto.OpUpdate, Rel: rel, Addr: addr, Cols: wc, Vals: vals})
	return err
}

// Delete removes one row.
func (c *Conn) Delete(rel string, addr proto.Row) error {
	_, err := c.Do(proto.Request{Op: proto.OpDelete, Rel: rel, Addr: addr})
	return err
}

// Lookup probes an index for key.
func (c *Conn) Lookup(rel, idx string, key any) ([]proto.RowTuple, error) {
	resp, err := c.Do(proto.Request{Op: proto.OpLookup, Rel: rel, Idx: idx, Vals: []any{key}})
	return resp.Rows, err
}

// Scan returns up to limit rows in storage order (0 = server default).
func (c *Conn) Scan(rel string, limit uint32) ([]proto.RowTuple, error) {
	resp, err := c.Do(proto.Request{Op: proto.OpScan, Rel: rel, Limit: limit})
	return resp.Rows, err
}

// Schema fetches a relation's wire schema.
func (c *Conn) Schema(rel string) ([]proto.Col, error) {
	resp, err := c.Do(proto.Request{Op: proto.OpSchema, Rel: rel})
	return resp.Schema, err
}

// DebitCredit runs the composite transaction, returning the stored
// sequence number and new account balance.
func (c *Conn) DebitCredit(account, teller, branch int64, delta float64, seq uint64) (uint64, float64, error) {
	resp, err := c.Do(proto.Request{
		Op: proto.OpDebitCredit, Account: account, Teller: teller, Branch: branch,
		Delta: delta, Seq: seq,
	})
	return resp.Seq, resp.Val, err
}

// Crash asks the server to crash and recover its database in place,
// returning the server-side recovery duration.
func (c *Conn) Crash() (time.Duration, error) {
	resp, err := c.Do(proto.Request{Op: proto.OpCrash})
	return time.Duration(resp.N) * time.Microsecond, err
}

// Metrics fetches the merged DB + server metrics snapshot as JSON.
func (c *Conn) Metrics() ([]byte, error) {
	resp, err := c.Do(proto.Request{Op: proto.OpMetrics})
	return resp.Blob, err
}

// ---------------------------------------------------------------------
// Pool.
// ---------------------------------------------------------------------

// Pool is a fixed set of connections handed out round-robin, so many
// client goroutines share a few pipelined sockets.
type Pool struct {
	conns []*Conn
	next  atomic.Uint64
}

// DialPool opens n connections to addr.
func DialPool(addr string, n int) (*Pool, error) {
	if n <= 0 {
		n = 1
	}
	p := &Pool{conns: make([]*Conn, 0, n)}
	for i := 0; i < n; i++ {
		c, err := Dial(addr)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.conns = append(p.conns, c)
	}
	return p, nil
}

// Conn returns the next connection round-robin.
func (p *Pool) Conn() *Conn {
	return p.conns[p.next.Add(1)%uint64(len(p.conns))]
}

// Size returns the number of pooled connections.
func (p *Pool) Size() int { return len(p.conns) }

// Close closes every pooled connection.
func (p *Pool) Close() {
	for _, c := range p.conns {
		_ = c.Close()
	}
}
