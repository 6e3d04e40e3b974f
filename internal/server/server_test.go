package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"mmdb"
	"mmdb/internal/fault"
	"mmdb/internal/metrics"
	"mmdb/internal/server/client"
	"mmdb/internal/server/proto"
)

// testDBConfig shrinks the hardware like the facade tests so the
// server exercises page flushes and checkpoints quickly.
func testDBConfig() mmdb.Config {
	cfg := mmdb.DefaultConfig()
	cfg.PartitionSize = 8 << 10
	cfg.LogPageSize = 1 << 10
	cfg.SLBBlockSize = 1 << 10
	cfg.UpdateThreshold = 64
	cfg.LogWindowPages = 256
	cfg.GracePages = 4
	cfg.CheckpointTracks = 512
	cfg.StableBytes = 16 << 20
	cfg.BackgroundRecovery = false
	cfg.FaultInjector = fault.NewInjector(fault.Plan{})
	return cfg
}

// startServer boots a server on an ephemeral port; the returned cleanup
// is idempotent so tests that Close explicitly can still defer it.
func startServer(t *testing.T, dbCfg mmdb.Config, cfg Config) (*Server, func()) {
	t.Helper()
	db, err := mmdb.Open(dbCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	s, err := New(db, dbCfg, cfg)
	if err != nil {
		_ = db.Close()
		t.Fatal(err)
	}
	return s, func() { _ = s.Close() }
}

var wireSchema = []proto.Col{
	{Name: "id", Type: 1},   // int64
	{Name: "bal", Type: 2},  // float64
	{Name: "note", Type: 3}, // string
}

func TestServerBasicOps(t *testing.T) {
	s, cleanup := startServer(t, testDBConfig(), Config{})
	defer cleanup()
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateRelation("accounts", wireSchema); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateRelation("accounts", wireSchema); !client.HasStatus(err, proto.StatusExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := c.CreateIndex("accounts", "pk", "id", 2 /* linhash */, 16); err != nil {
		t.Fatal(err)
	}

	addr, err := c.Insert("accounts", []any{int64(1), 100.0, "alice"})
	if err != nil {
		t.Fatal(err)
	}
	tup, err := c.Get("accounts", addr)
	if err != nil {
		t.Fatal(err)
	}
	if tup[0] != int64(1) || tup[1] != 100.0 || tup[2] != "alice" {
		t.Fatalf("Get = %v", tup)
	}
	if err := c.Update("accounts", addr, []string{"bal"}, []any{150.0}); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Lookup("accounts", "pk", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Tuple[1] != 150.0 {
		t.Fatalf("Lookup = %+v", rows)
	}
	if _, err := c.Insert("accounts", []any{int64(2), 7.0, "bob"}); err != nil {
		t.Fatal(err)
	}
	all, err := c.Scan("accounts", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("Scan = %d rows", len(all))
	}
	schema, err := c.Schema("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if len(schema) != 3 || schema[0].Name != "id" || schema[0].Type != 1 {
		t.Fatalf("Schema = %+v", schema)
	}
	if err := c.Delete("accounts", addr); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("accounts", addr); !client.HasStatus(err, proto.StatusNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	if _, err := c.Get("nope", addr); !client.HasStatus(err, proto.StatusNotFound) {
		t.Fatalf("get missing relation: %v", err)
	}

	blob, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("metrics blob: %v", err)
	}
	srv := snap.Subsystem("server")
	if srv == nil {
		t.Fatal("metrics blob missing server subsystem")
	}
	if srv.Counter("requests") == 0 || srv.Counter("connections_accepted") == 0 {
		t.Fatalf("server counters not threaded: %+v", srv.Counters)
	}
}

// TestServerPipelining issues a deep pipeline of independent requests
// on one connection and checks every response arrives matched to its
// request (client.Conn correlates by ID alone).
func TestServerPipelining(t *testing.T) {
	s, cleanup := startServer(t, testDBConfig(), Config{Workers: 4})
	defer cleanup()
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateRelation("accounts", wireSchema); err != nil {
		t.Fatal(err)
	}

	const n = 500
	pend := make([]*client.Pending, 0, 2*n)
	for i := 0; i < n; i++ {
		pend = append(pend, c.Send(proto.Request{
			Op: proto.OpInsert, Rel: "accounts",
			Vals: []any{int64(i), float64(i), fmt.Sprintf("u%d", i)},
		}))
		pend = append(pend, c.Send(proto.Request{Op: proto.OpPing}))
	}
	for i, p := range pend {
		resp, err := p.Wait()
		if err != nil {
			t.Fatalf("pending %d: %v", i, err)
		}
		if resp.Status != proto.StatusOK {
			t.Fatalf("pending %d: %v %s", i, resp.Status, resp.Msg)
		}
	}
	rows, err := c.Scan("accounts", proto.MaxRows)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("inserted %d rows, scan sees %d", n, len(rows))
	}
}

// TestServerManyConnections runs a hundred concurrent connections
// through four execution slots (the 1k+ demonstration is cmd/mmdbload's
// job; this keeps CI fast).
func TestServerManyConnections(t *testing.T) {
	s, cleanup := startServer(t, testDBConfig(), Config{Workers: 4})
	defer cleanup()
	boot, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := boot.CreateRelation("accounts", wireSchema); err != nil {
		t.Fatal(err)
	}
	boot.Close()

	const conns = 100
	const perConn = 10
	var wg sync.WaitGroup
	errCh := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(s.Addr())
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			pend := make([]*client.Pending, 0, perConn)
			for j := 0; j < perConn; j++ {
				pend = append(pend, c.Send(proto.Request{
					Op: proto.OpInsert, Rel: "accounts",
					Vals: []any{int64(i*perConn + j), 1.0, "x"},
				}))
			}
			for _, p := range pend {
				if resp, err := p.Wait(); err != nil {
					errCh <- err
					return
				} else if resp.Status != proto.StatusOK {
					errCh <- fmt.Errorf("status %v: %s", resp.Status, resp.Msg)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	snap := s.Metrics().Subsystem("server")
	if got := snap.Counter("connections_accepted"); got < conns {
		t.Fatalf("accepted %d connections, want >= %d", got, conns)
	}
}

// TestServerGracefulShutdown drains in-flight work: every request
// submitted before Close gets a real answer, frames arriving during the
// drain get the typed StatusShutdown rejection, and Close returns with
// the DB settled.
func TestServerGracefulShutdown(t *testing.T) {
	s, cleanup := startServer(t, testDBConfig(), Config{Workers: 2})
	defer cleanup()
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateRelation("accounts", wireSchema); err != nil {
		t.Fatal(err)
	}

	// Pipeline a burst, then close the server while it executes.
	const n = 200
	pend := make([]*client.Pending, 0, n)
	for i := 0; i < n; i++ {
		pend = append(pend, c.Send(proto.Request{
			Op: proto.OpInsert, Rel: "accounts",
			Vals: []any{int64(i), 0.0, "z"},
		}))
	}
	// Ensure the pipeline actually reached the server before draining,
	// otherwise every frame is legitimately rejected.
	if resp, err := pend[0].Wait(); err != nil || resp.Status != proto.StatusOK {
		t.Fatalf("first insert: %v %v", resp.Status, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ok, rejected := 1, 0
	for _, p := range pend[1:] {
		resp, err := p.Wait()
		switch {
		case err != nil:
			// The connection may be torn down after the flush: requests
			// that never reached the server surface as transport errors.
			rejected++
		case resp.Status == proto.StatusOK:
			ok++
		case resp.Status == proto.StatusShutdown:
			rejected++
		default:
			t.Fatalf("unexpected status %v: %s", resp.Status, resp.Msg)
		}
	}
	if ok == 0 {
		t.Fatal("no request survived the drain; expected in-flight work to finish")
	}
	t.Logf("drain: %d executed, %d rejected", ok, rejected)
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second close: %v", err)
	}
}

// TestServerDrainRejectionTyped white-boxes the draining flag: while
// set, every frame is answered with StatusShutdown (not dropped, not
// executed).
func TestServerDrainRejectionTyped(t *testing.T) {
	s, cleanup := startServer(t, testDBConfig(), Config{})
	defer cleanup()
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateRelation("accounts", wireSchema); err != nil {
		t.Fatal(err)
	}

	s.draining.Store(true)

	_, err = c.Insert("accounts", []any{int64(1), 1.0, "a"})
	if !client.HasStatus(err, proto.StatusShutdown) {
		t.Fatalf("during drain: %v", err)
	}

	s.draining.Store(false)
	if _, err := c.Insert("accounts", []any{int64(1), 1.0, "a"}); err != nil {
		t.Fatalf("after drain lifted: %v", err)
	}
	if got := s.Metrics().Subsystem("server").Counter("rejected_shutdown"); got != 1 {
		t.Fatalf("rejected_shutdown = %d, want 1", got)
	}
}

// TestServerCorruptFrame poisons one connection with garbage; the
// server must drop it without disturbing other connections.
func TestServerCorruptFrame(t *testing.T) {
	s, cleanup := startServer(t, testDBConfig(), Config{})
	defer cleanup()

	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// A frame with a corrupt payload: valid length, bad opcode.
	if _, err := nc.Write([]byte{2, 1, 0xEE}); err != nil {
		t.Fatal(err)
	}
	// The server drops the connection: the read ends.
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept a poisoned connection open")
	} else if !errors.Is(err, io.EOF) {
		// Reset is fine too; a timeout is not.
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("server neither answered nor closed a poisoned connection")
		}
	}
	nc.Close()

	// A healthy connection still works.
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Subsystem("server").Counter("corrupt_frames"); got != 1 {
		t.Fatalf("corrupt_frames = %d, want 1", got)
	}
}

// seedDebitCredit creates the load-rig schema and base rows.
func seedDebitCredit(t *testing.T, c *client.Conn, accounts, tellers, branches int) {
	t.Helper()
	idBal := []proto.Col{{Name: "id", Type: 1}, {Name: "bal", Type: 2}}
	acct := append(idBal, proto.Col{Name: "seq", Type: 1})
	if err := c.CreateRelation("accounts", acct); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateRelation("tellers", idBal); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateRelation("branches", idBal); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateRelation("history", []proto.Col{
		{Name: "account", Type: 1}, {Name: "teller", Type: 1},
		{Name: "branch", Type: 1}, {Name: "delta", Type: 2},
	}); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"accounts", "tellers", "branches"} {
		if err := c.CreateIndex(rel, "pk", "id", 2 /* linhash */, 16); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < accounts; i++ {
		if _, err := c.Insert("accounts", []any{int64(i), 0.0, int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tellers; i++ {
		if _, err := c.Insert("tellers", []any{int64(i), 0.0}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < branches; i++ {
		if _, err := c.Insert("branches", []any{int64(i), 0.0}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerDebitCredit runs the composite transaction and checks the
// per-account sequence survives a remote crash+recover: anything the
// server acknowledged must still be in the stored sequence afterwards.
func TestServerDebitCredit(t *testing.T) {
	s, cleanup := startServer(t, testDBConfig(), Config{Workers: 4})
	defer cleanup()
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedDebitCredit(t, c, 4, 2, 1)

	var acked uint64
	for i := 1; i <= 50; i++ {
		seq, _, err := c.DebitCredit(int64(i%4), int64(i%2), 0, 1.0, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if seq < uint64(i) {
			t.Fatalf("stored seq %d regressed below request seq %d", seq, i)
		}
		acked = uint64(i)
	}

	// Remote crash + in-place recovery.
	oldDB := s.DB()
	dur, err := c.Crash()
	if err != nil {
		t.Fatal(err)
	}
	if s.DB() == oldDB {
		t.Fatal("crash did not swap the DB instance")
	}
	t.Logf("remote crash+recover in %v", dur)

	// Committed state survived: every acknowledged sequence is <= the
	// stored one for its account (stored = max over acked seqs).
	maxStored := uint64(0)
	for a := 0; a < 4; a++ {
		rows, err := c.Lookup("accounts", "pk", int64(a))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("account %d: %d rows after recovery", a, len(rows))
		}
		if got, _ := rows[0].Tuple[2].(int64); uint64(got) > maxStored {
			maxStored = uint64(got)
		}
	}
	if maxStored < acked {
		t.Fatalf("stored max seq %d < acked %d: committed transaction lost", maxStored, acked)
	}

	// The front door keeps serving on the recovered instance.
	if _, _, err := c.DebitCredit(1, 0, 0, -1.0, acked+1); err != nil {
		t.Fatal(err)
	}
}

// TestServerCrashUnderLoad crashes the database while debit-credit
// traffic is in flight on several connections: requests caught in the
// window come back as typed retryable rejections or clean transport
// errors, never bogus acks, and the stored sequence never falls below
// an acknowledged one.
func TestServerCrashUnderLoad(t *testing.T) {
	dbCfg := testDBConfig()
	dbCfg.BackgroundRecovery = true
	dbCfg.RecoveryWorkers = 2
	s, cleanup := startServer(t, dbCfg, Config{Workers: 4})
	defer cleanup()
	boot, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	seedDebitCredit(t, boot, 8, 2, 1)

	const workers = 4
	acked := make([]uint64, 8) // per-account max acknowledged seq
	var ackMu sync.Mutex
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(s.Addr())
			if err != nil {
				return
			}
			defer c.Close()
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				acct := int64((w*31 + i) % 8)
				seq := uint64(w)<<32 | uint64(i)
				got, _, err := c.DebitCredit(acct, int64(i%2), 0, 1.0, seq)
				if err != nil {
					if client.HasStatus(err, proto.StatusRecovering) || client.HasStatus(err, proto.StatusDeadlock) {
						continue // typed, retryable, not executed... retry
					}
					return // transport error: connection died mid-crash
				}
				if got < seq {
					t.Errorf("ack seq %d < request seq %d", got, seq)
					return
				}
				ackMu.Lock()
				if seq > acked[acct] {
					acked[acct] = seq
				}
				ackMu.Unlock()
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond) // deliberate: load runs this long before the crash
	if _, err := boot.Crash(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // deliberate: load keeps running across recovery
	close(stop)
	wg.Wait()

	// Every acknowledged sequence must be durable. (acked was taken
	// before the crash ack, so all entries predate or span recovery.)
	ackMu.Lock()
	defer ackMu.Unlock()
	for a := 0; a < 8; a++ {
		rows, err := boot.Lookup("accounts", "pk", int64(a))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("account %d: %d rows", a, len(rows))
		}
		stored, _ := rows[0].Tuple[2].(int64)
		if uint64(stored) < acked[a] {
			t.Fatalf("account %d: stored seq %d < acked %d — committed transaction lost",
				a, stored, acked[a])
		}
	}
	boot.Close()
}

// TestServerCloseAfterCrashDoesNotRaceSweep is the shutdown/background
// sweep regression: recover with the background sweep enabled, then
// Close immediately — the sweep must be allowed to settle, not torn
// down mid-partition. Run under -race in CI.
func TestServerCloseAfterCrashDoesNotRaceSweep(t *testing.T) {
	dbCfg := testDBConfig()
	dbCfg.BackgroundRecovery = true
	dbCfg.RecoveryWorkers = 4
	s, cleanup := startServer(t, dbCfg, Config{Workers: 4})
	defer cleanup()
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	seedDebitCredit(t, c, 64, 4, 2) // several partitions for the sweep
	for i := 1; i <= 128; i++ {
		if _, _, err := c.DebitCredit(int64(i%64), int64(i%4), int64(i%2), 1.0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Close with the sweep (possibly) mid-flight.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------
// One goroutine per connection. These tests speak the protocol over raw
// net.Conns: client.Conn's own reader and writer goroutines would blur
// the counts and the write boundaries they assert on.
// ---------------------------------------------------------------------

func rawDial(t *testing.T, s *Server) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return nc
}

// writeFrames sends reqs in one socket write, IDs 1..len(reqs).
func writeFrames(t *testing.T, nc net.Conn, reqs []proto.Request) {
	t.Helper()
	var buf []byte
	for i := range reqs {
		reqs[i].ID = uint64(i + 1)
		buf = proto.AppendRequest(buf, &reqs[i])
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// readResponses reads until want responses have arrived, or the stream
// ends; it returns what it decoded and the error that ended the read
// (nil when want was reached).
func readResponses(nc net.Conn, want int) ([]proto.Response, error) {
	_ = nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	var got []proto.Response
	var buf []byte
	tmp := make([]byte, 32<<10)
	for {
		for {
			resp, n, err := proto.DecodeResponse(buf)
			if errors.Is(err, proto.ErrShort) {
				break
			}
			if err != nil {
				return got, err
			}
			buf = buf[n:]
			got = append(got, resp)
		}
		if len(got) >= want {
			return got, nil
		}
		n, err := nc.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if err != nil && n == 0 {
			return got, err
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func serverCounter(s *Server, name string) int64 {
	return s.Metrics().Subsystem("server").Counter(name)
}

// TestServerAnswersInRequestOrder writes N mixed frames in one socket
// write and expects the responses in the order sent — so a lookup sees
// the insert pipelined ahead of it on the same connection.
func TestServerAnswersInRequestOrder(t *testing.T) {
	s, cleanup := startServer(t, testDBConfig(), Config{Workers: 4})
	defer cleanup()
	boot, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Close()
	if err := boot.CreateRelation("accounts", wireSchema); err != nil {
		t.Fatal(err)
	}
	if err := boot.CreateIndex("accounts", "pk", "id", 2 /* linhash */, 16); err != nil {
		t.Fatal(err)
	}

	const rounds = 100
	var reqs []proto.Request
	for i := 0; i < rounds; i++ {
		reqs = append(reqs,
			proto.Request{Op: proto.OpInsert, Rel: "accounts", Vals: []any{int64(i), float64(i), "p"}},
			proto.Request{Op: proto.OpPing},
			proto.Request{Op: proto.OpLookup, Rel: "accounts", Idx: "pk", Vals: []any{int64(i)}})
	}
	nc := rawDial(t, s)
	writeFrames(t, nc, reqs)
	got, err := readResponses(nc, len(reqs))
	if err != nil {
		t.Fatalf("after %d of %d responses: %v", len(got), len(reqs), err)
	}
	for i, resp := range got {
		if resp.ID != uint64(i+1) {
			t.Fatalf("response %d carries ID %d: out of request order", i, resp.ID)
		}
		if resp.Status != proto.StatusOK {
			t.Fatalf("request %d: %v %s", resp.ID, resp.Status, resp.Msg)
		}
		if reqs[i].Op == proto.OpLookup && len(resp.Rows) != 1 {
			t.Fatalf("lookup %d found %d rows; the insert ahead of it had been answered", resp.ID, len(resp.Rows))
		}
	}
}

// TestServerFlushPerBatch pins the flush policy: frames that arrive
// together share socket writes, and a closed-loop caller still gets one
// write per request.
func TestServerFlushPerBatch(t *testing.T) {
	s, cleanup := startServer(t, testDBConfig(), Config{})
	defer cleanup()
	// The server counts a flush after the write, so the counters are
	// read once the connection is gone: its goroutine has finished.
	hangUp := func(nc net.Conn) {
		_ = nc.Close()
		waitFor(t, "the connection to be dropped", func() bool { return s.mConns.Value() == 0 })
	}

	const k = 64
	pings := make([]proto.Request, k)
	for i := range pings {
		pings[i].Op = proto.OpPing
	}
	nc := rawDial(t, s)
	writeFrames(t, nc, pings)
	if got, err := readResponses(nc, k); err != nil {
		t.Fatalf("after %d of %d responses: %v", len(got), k, err)
	}
	hangUp(nc)
	if got := serverCounter(s, "requests"); got != k {
		t.Fatalf("requests = %d after %d frames in one write", got, k)
	}
	batched := serverCounter(s, "flushes")
	if batched < 1 || batched >= k {
		t.Fatalf("%d frames in one write cost %d flushes, want fewer than %d", k, batched, k)
	}

	const m = 20
	nc = rawDial(t, s)
	for i := 0; i < m; i++ {
		writeFrames(t, nc, pings[:1])
		if _, err := readResponses(nc, 1); err != nil {
			t.Fatal(err)
		}
	}
	hangUp(nc)
	if got := serverCounter(s, "flushes") - batched; got != m {
		t.Fatalf("%d closed-loop requests cost %d flushes, want one each", m, got)
	}
}

// TestServerOneGoroutinePerConnection: 200 idle connections cost 200
// server goroutines, not 400.
func TestServerOneGoroutinePerConnection(t *testing.T) {
	s, cleanup := startServer(t, testDBConfig(), Config{})
	defer cleanup()
	const conns = 200
	before := runtime.NumGoroutine()
	for i := 0; i < conns; i++ {
		rawDial(t, s)
	}
	waitFor(t, "every connection to be accepted", func() bool { return s.mConns.Value() == conns })
	// Goroutines of earlier tests still winding down can only lower the
	// delta; the slack is for the runtime's own.
	if delta := runtime.NumGoroutine() - before; delta > conns+10 {
		t.Fatalf("%d idle connections cost %d goroutines, want one each", conns, delta)
	}
}

// TestServerAnswersFramesAheadOfCorruption: frames that decoded cleanly
// are answered and flushed before the garbage behind them, in the same
// write, drops the connection.
func TestServerAnswersFramesAheadOfCorruption(t *testing.T) {
	s, cleanup := startServer(t, testDBConfig(), Config{})
	defer cleanup()
	nc := rawDial(t, s)

	var buf []byte
	for id := uint64(1); id <= 3; id++ {
		buf = proto.AppendRequest(buf, &proto.Request{ID: id, Op: proto.OpPing})
	}
	buf = append(buf, 2, 1, 0xEE) // valid length, bad opcode
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	got, err := readResponses(nc, 4)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("poisoned connection ended with %v after %d responses, want EOF", err, len(got))
	}
	if len(got) != 3 {
		t.Fatalf("%d of the 3 clean frames were answered", len(got))
	}
	for i, resp := range got {
		if resp.ID != uint64(i+1) || resp.Status != proto.StatusOK {
			t.Fatalf("response %d = id %d, %v", i, resp.ID, resp.Status)
		}
	}
	if got := serverCounter(s, "corrupt_frames"); got != 1 {
		t.Fatalf("corrupt_frames = %d, want 1", got)
	}
}

// TestServerRecoveringRejectionDoesNotWait stands in for a crash+recover
// cycle that finds every execution slot busy (white box: the flag up,
// the db lock held exclusively, the one slot taken): another
// connection's request is answered with the typed rejection at once, not
// after the restart.
func TestServerRecoveringRejectionDoesNotWait(t *testing.T) {
	s, cleanup := startServer(t, testDBConfig(), Config{Workers: 1})
	defer cleanup()
	s.recovering.Store(true)
	s.slots <- struct{}{}
	s.dbMu.Lock()
	restarted := false
	restart := func() {
		if !restarted {
			restarted = true
			s.dbMu.Unlock()
			<-s.slots
			s.recovering.Store(false)
		}
	}
	defer restart()

	nc := rawDial(t, s)
	writeFrames(t, nc, []proto.Request{{Op: proto.OpPing}})
	got, err := readResponses(nc, 1)
	if err != nil {
		t.Fatalf("no answer while the restart holds the database: %v", err)
	}
	if got[0].Status != proto.StatusRecovering {
		t.Fatalf("status %v, want recovering", got[0].Status)
	}
	restart()
	writeFrames(t, nc, []proto.Request{{Op: proto.OpPing}})
	if got, err = readResponses(nc, 1); err != nil || got[0].Status != proto.StatusOK {
		t.Fatalf("after the restart: %v %v", got, err)
	}
	if got := serverCounter(s, "rejected_recovering"); got != 1 {
		t.Fatalf("rejected_recovering = %d, want 1", got)
	}
}

// TestServerCloseAnswersBufferedFrames pins the drain order on one
// connection: the request it is in finishes, the frames already
// buffered behind it get the typed rejection, and the stream ends
// cleanly.
func TestServerCloseAnswersBufferedFrames(t *testing.T) {
	s, cleanup := startServer(t, testDBConfig(), Config{Workers: 1})
	defer cleanup()
	s.slots <- struct{}{} // the first frame will wait here, mid-request
	nc := rawDial(t, s)
	writeFrames(t, nc, []proto.Request{{Op: proto.OpPing}, {Op: proto.OpPing}, {Op: proto.OpPing}})
	waitFor(t, "the first frame to reach its slot", func() bool { return s.mInflight.Value() == 1 })

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	waitFor(t, "Close to start draining", s.draining.Load)
	<-s.slots

	got, err := readResponses(nc, 4)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("drained connection ended with %v after %d responses, want EOF", err, len(got))
	}
	want := []proto.Status{proto.StatusOK, proto.StatusShutdown, proto.StatusShutdown}
	if len(got) != len(want) {
		t.Fatalf("%d responses, want %d", len(got), len(want))
	}
	for i, resp := range got {
		if resp.ID != uint64(i+1) || resp.Status != want[i] {
			t.Fatalf("response %d = id %d, %v; want id %d, %v", i, resp.ID, resp.Status, i+1, want[i])
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}
