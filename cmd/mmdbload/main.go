// Command mmdbload is the open-loop load rig for the mmdb network
// front-end: it simulates thousands of concurrent clients firing
// Gray-style debit/credit transactions at a server on a skewed, bursty
// arrival schedule, and reports committed throughput plus p50/p95/p99
// commit latency. Optionally it crashes the database mid-run (remote
// OpCrash) and measures the outage as clients see it: time to first
// byte after the crash, time to first committed transaction, and —
// the recovery algorithm's core promise — that not one acknowledged
// transaction was lost, verified against the rig's client-side ack
// log.
//
// Open loop means arrivals follow a fixed schedule (exponential gaps,
// periodic bursts — internal/workload.Arrivals) and never wait for
// earlier requests: a slow server accumulates backlog and the latency
// report shows it, instead of the rig silently throttling the offered
// load (coordinated omission). Latency is measured from the scheduled
// arrival instant, not the actual send.
//
//	mmdbload -addr 127.0.0.1:7707 -conns 1000 -rate 20000 -duration 6s -crash-at 3s
//
// With -addr "" the rig boots an in-process server, making a
// single-binary smoke run possible.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mmdb"
	"mmdb/internal/fault"
	"mmdb/internal/metrics"
	"mmdb/internal/server"
	"mmdb/internal/server/client"
	"mmdb/internal/server/proto"
	"mmdb/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "", "server address (empty: boot an in-process server)")
		conns      = flag.Int("conns", 1000, "concurrent client connections")
		rate       = flag.Float64("rate", 10000, "offered arrivals per second (calm phase)")
		burst      = flag.Float64("burst", 4, "burst rate multiplier (<=1 disables bursts)")
		burstEvery = flag.Duration("burst-every", 500*time.Millisecond, "burst cycle period")
		burstLen   = flag.Duration("burst-len", 100*time.Millisecond, "burst duration per cycle")
		duration   = flag.Duration("duration", 6*time.Second, "offered-load window")
		crashAt    = flag.Duration("crash-at", 0, "crash+recover the database this long into the run (0 disables)")
		accounts   = flag.Int64("accounts", 1000, "number of accounts")
		tellers    = flag.Int64("tellers", 100, "number of tellers")
		branches   = flag.Int64("branches", 10, "number of branches")
		dist       = flag.String("dist", "zipf", "account distribution: zipf, hotcold, uniform")
		zipfS      = flag.Float64("zipf-s", 1.2, "zipf exponent (dist=zipf)")
		hotFrac    = flag.Float64("hot", 0.1, "hot fraction of accounts (dist=hotcold)")
		hotProb    = flag.Float64("hot-prob", 0.9, "probability of a hot access (dist=hotcold)")
		seed       = flag.Int64("seed", 1, "workload RNG seed")
		setup      = flag.Bool("setup", true, "create the debit-credit schema and rows before the run")
		report     = flag.String("report", "", "write the JSON report to this file")
		serverCfg  = server.Config{}
	)
	flag.IntVar(&serverCfg.Workers, "workers", 8, "in-process server: transactions executing at once")
	flag.Parse()

	// Optional in-process server.
	target := *addr
	var inproc *server.Server
	if target == "" {
		cfg := mmdb.DefaultConfig()
		cfg.BackgroundRecovery = true
		cfg.RecoveryWorkers = 4
		cfg.FaultInjector = fault.NewInjector(fault.Plan{})
		db, err := mmdb.Open(cfg)
		if err != nil {
			die("open: %v", err)
		}
		inproc, err = server.New(db, cfg, serverCfg)
		if err != nil {
			die("serve: %v", err)
		}
		target = inproc.Addr()
		fmt.Printf("mmdbload: in-process server on %s\n", target)
	}

	rng := rand.New(rand.NewSource(*seed))
	var accountDist workload.KeyDist
	switch *dist {
	case "zipf":
		accountDist = workload.NewZipf(rng, *zipfS, *accounts)
	case "hotcold":
		hot := int64(float64(*accounts) * *hotFrac)
		if hot < 1 {
			hot = 1
		}
		accountDist = workload.HotCold{N: *accounts, Hot: hot, HotProb: *hotProb, Rng: rng}
	case "uniform":
		accountDist = workload.Uniform{N: *accounts, Rng: rng}
	default:
		die("unknown -dist %q", *dist)
	}

	// Seed the schema and rows.
	boot, err := client.Dial(target)
	if err != nil {
		die("dial: %v", err)
	}
	if *setup {
		if err := seedSchema(boot, *accounts, *tellers, *branches); err != nil {
			die("setup: %v", err)
		}
		fmt.Printf("mmdbload: seeded %d accounts, %d tellers, %d branches\n", *accounts, *tellers, *branches)
	}

	// The offered load: a fixed open-loop schedule plus the matching
	// debit/credit ops. Delta is fixed at +1.0 so each account balance
	// counts its committed transactions — the ack-log verification
	// compares that count against acknowledged commits.
	n := int(*rate * duration.Seconds())
	sched := workload.Arrivals{
		Rate: *rate, Burst: *burst, BurstEvery: *burstEvery, BurstLen: *burstLen, Rng: rng,
	}.Schedule(n)
	ops := workload.DebitCredit(accountDist, *tellers, *branches, rng, n)
	for i := range ops {
		ops[i].Delta = 1.0
	}

	pool, err := client.DialPool(target, *conns)
	if err != nil {
		die("dial pool: %v", err)
	}
	fmt.Printf("mmdbload: %d connections to %s, %d arrivals over %v (%.0f/s, burst x%.0f)\n",
		pool.Size(), target, n, *duration, *rate, *burst)

	r := run(pool, boot, sched, ops, *crashAt)

	// Ack-log verification: every acknowledged commit must be durable.
	r.Verify = verify(boot, r.acked)

	// Server-side view: scrape the server's metrics (OpMetrics) so the
	// report pairs the rig's client-observed percentiles with the
	// execution- and commit-path percentiles the server measured itself.
	r.Server = scrapeServer(boot)

	printReport(r)
	if *report != "" {
		blob, _ := json.MarshalIndent(r, "", "  ")
		if err := os.WriteFile(*report, blob, 0o644); err != nil {
			die("report: %v", err)
		}
		fmt.Printf("mmdbload: report written to %s\n", *report)
	}

	pool.Close()
	boot.Close()
	if inproc != nil {
		if err := inproc.Close(); err != nil {
			die("close: %v", err)
		}
	}
	if !r.Verify.OK {
		die("VERIFICATION FAILED: %d acknowledged commits lost", r.Verify.LostCommits)
	}
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mmdbload: "+format+"\n", args...)
	os.Exit(1)
}

// seedSchema creates the debit-credit relations, their pk indexes, and
// the base rows; StatusExists makes reruns against a live server safe.
func seedSchema(c *client.Conn, accounts, tellers, branches int64) error {
	ignoreExists := func(err error) error {
		if client.HasStatus(err, proto.StatusExists) {
			return nil
		}
		return err
	}
	idBal := []proto.Col{{Name: "id", Type: 1}, {Name: "bal", Type: 2}}
	acct := append(append([]proto.Col(nil), idBal...), proto.Col{Name: "seq", Type: 1})
	if err := ignoreExists(c.CreateRelation("accounts", acct)); err != nil {
		return err
	}
	for _, rel := range []string{"tellers", "branches"} {
		if err := ignoreExists(c.CreateRelation(rel, idBal)); err != nil {
			return err
		}
	}
	if err := ignoreExists(c.CreateRelation("history", []proto.Col{
		{Name: "account", Type: 1}, {Name: "teller", Type: 1},
		{Name: "branch", Type: 1}, {Name: "delta", Type: 2},
	})); err != nil {
		return err
	}
	for _, rel := range []string{"accounts", "tellers", "branches"} {
		if err := ignoreExists(c.CreateIndex(rel, "pk", "id", 2 /* linhash */, 16)); err != nil {
			return err
		}
	}
	// Pipelined seeding: don't pay a round trip per row.
	var pend []*client.Pending
	insert := func(rel string, vals []any) {
		pend = append(pend, c.Send(proto.Request{Op: proto.OpInsert, Rel: rel, Vals: vals}))
	}
	for i := int64(0); i < accounts; i++ {
		insert("accounts", []any{i, 0.0, int64(0)})
	}
	for i := int64(0); i < tellers; i++ {
		insert("tellers", []any{i, 0.0})
	}
	for i := int64(0); i < branches; i++ {
		insert("branches", []any{i, 0.0})
	}
	for _, p := range pend {
		resp, err := p.Wait()
		if err != nil {
			return err
		}
		if resp.Status != proto.StatusOK {
			return fmt.Errorf("seed insert: %v %s", resp.Status, resp.Msg)
		}
	}
	return nil
}

// sample is one completed (or failed) request as the aggregator sees it.
type sample struct {
	schedAt time.Duration // intended arrival offset
	doneAt  time.Duration // completion offset
	status  proto.Status
	acct    int64
	seq     uint64
	tErr    bool // transport error: outcome unknown
}

// LatencyStats are exact percentiles over one phase's commit latencies.
type LatencyStats struct {
	N     int     `json:"n"`
	P50us float64 `json:"p50_us"`
	P95us float64 `json:"p95_us"`
	P99us float64 `json:"p99_us"`
	Maxus float64 `json:"max_us"`
}

// CrashStats time the mid-run crash+recover as clients observe it.
type CrashStats struct {
	AtSec            float64 `json:"at_s"`
	ServerRecoveryUS int64   `json:"server_recovery_us"`
	TTFBAfterCrashUS int64   `json:"ttfb_after_crash_us"`
	FirstCommitUS    int64   `json:"first_commit_after_crash_us"`
	Rejected         int64   `json:"rejected_recovering"`
}

// VerifyStats is the ack-log check: acknowledged commits vs durable
// per-account transaction counts and sequence numbers.
type VerifyStats struct {
	AccountsChecked int   `json:"accounts_checked"`
	AckedCommits    int64 `json:"acked_commits"`
	Unknown         int64 `json:"unknown_outcome"`
	LostCommits     int64 `json:"lost_commits"`
	OK              bool  `json:"ok"`
}

// ServerSideStats are the server's own measurements of the run,
// scraped over the wire (OpMetrics) after the load drains: execution and
// commit-path p99s free of client queueing, plus restart facts.
type ServerSideStats struct {
	Requests         int64   `json:"requests"`
	CrashCycles      int64   `json:"crash_recover_cycles"`
	CommitP99us      float64 `json:"commit_p99_us"`
	GroupWaitP99us   float64 `json:"group_commit_wait_p99_us"`
	SLBWriteP99us    float64 `json:"slb_record_write_p99_us"`
	DebitCreditP99us float64 `json:"debit_credit_exec_p99_us"`
	TTP99RestoredUS  int64   `json:"ttp99_restored_us,omitempty"`
}

// Report is the run summary, printed and optionally written as JSON.
type Report struct {
	Conns       int              `json:"conns"`
	Offered     int              `json:"offered"`
	CommittedOK int64            `json:"committed"`
	Deadlocks   int64            `json:"deadlocks"`
	Rejected    int64            `json:"rejected"`
	Errors      int64            `json:"errors"`
	Transport   int64            `json:"transport_errors"`
	WallSec     float64          `json:"wall_s"`
	Throughput  float64          `json:"committed_per_s"`
	Pre         LatencyStats     `json:"latency_pre_crash"`
	Post        LatencyStats     `json:"latency_post_crash,omitempty"`
	Crash       *CrashStats      `json:"crash,omitempty"`
	Verify      VerifyStats      `json:"verify"`
	Server      *ServerSideStats `json:"server,omitempty"`

	acked *ackLog
}

// ackLog is the client-side record of acknowledged commits.
type ackLog struct {
	count   map[int64]int64  // account -> acknowledged commit count
	maxSeq  map[int64]uint64 // account -> max acknowledged stored seq
	total   int64
	unknown int64
}

// run drives the schedule, collects every outcome, and assembles the
// report.
func run(pool *client.Pool, boot *client.Conn, sched []time.Duration, ops []workload.Op, crashAt time.Duration) *Report {
	resCh := make(chan sample, 8192)
	var seqCtr atomic.Uint64
	var inflight sync.WaitGroup
	start := time.Now()
	crashSent := int64(-1) // atomic: ns offset when the crash was fired
	var crashSentAt atomic.Int64
	crashSentAt.Store(crashSent)

	// Crash trigger.
	var crash *CrashStats
	var crashWg sync.WaitGroup
	if crashAt > 0 {
		crash = &CrashStats{AtSec: crashAt.Seconds()}
		crashWg.Add(1)
		go func() {
			defer crashWg.Done()
			time.Sleep(time.Until(start.Add(crashAt)))
			crashSentAt.Store(int64(time.Since(start)))
			dur, err := boot.Crash()
			if err != nil {
				fmt.Fprintf(os.Stderr, "mmdbload: crash: %v\n", err)
				return
			}
			crash.ServerRecoveryUS = dur.Microseconds()
		}()
	}

	// Aggregator: single owner of all mutable stats.
	acked := &ackLog{count: map[int64]int64{}, maxSeq: map[int64]uint64{}}
	rep := &Report{Conns: pool.Size(), Offered: len(sched), Crash: crash, acked: acked}
	var preLat, postLat []time.Duration
	firstResp, firstCommit := int64(-1), int64(-1)
	var aggWg sync.WaitGroup
	aggWg.Add(1)
	go func() {
		defer aggWg.Done()
		for s := range resCh {
			cs := crashSentAt.Load()
			afterCrash := cs >= 0 && int64(s.doneAt) >= cs
			if afterCrash && firstResp < 0 {
				firstResp = int64(s.doneAt) - cs
			}
			switch {
			case s.tErr:
				rep.Transport++
				acked.unknown++
			case s.status == proto.StatusOK:
				rep.CommittedOK++
				acked.total++
				acked.count[s.acct]++
				if s.seq > acked.maxSeq[s.acct] {
					acked.maxSeq[s.acct] = s.seq
				}
				lat := s.doneAt - s.schedAt
				if afterCrash {
					if firstCommit < 0 {
						firstCommit = int64(s.doneAt) - cs
					}
					postLat = append(postLat, lat)
				} else {
					preLat = append(preLat, lat)
				}
			case s.status == proto.StatusDeadlock:
				rep.Deadlocks++
			case s.status == proto.StatusRecovering, s.status == proto.StatusShutdown:
				rep.Rejected++
				if crash != nil {
					crash.Rejected++
				}
			default:
				rep.Errors++
			}
		}
	}()

	// Dispatcher: fire each arrival at its scheduled instant.
	for i, at := range sched {
		if sleep := time.Until(start.Add(at)); sleep > 0 {
			time.Sleep(sleep)
		}
		op := ops[i]
		seq := seqCtr.Add(1)
		req := proto.Request{
			Op: proto.OpDebitCredit, Account: op.Account, Teller: op.Teller,
			Branch: op.Branch, Delta: op.Delta, Seq: seq,
		}
		p := pool.Conn().Send(req)
		inflight.Add(1)
		go func(p *client.Pending, schedAt time.Duration, acct int64, seq uint64) {
			defer inflight.Done()
			resp, err := p.Wait()
			s := sample{schedAt: schedAt, doneAt: time.Since(start), acct: acct, seq: seq}
			if err != nil {
				s.tErr = true
			} else {
				s.status = resp.Status
				s.seq = resp.Seq
			}
			resCh <- s
		}(p, at, op.Account, seq)
	}
	inflight.Wait()
	crashWg.Wait()
	close(resCh)
	aggWg.Wait()

	rep.WallSec = time.Since(start).Seconds()
	rep.Throughput = float64(rep.CommittedOK) / rep.WallSec
	rep.Pre = latencyStats(preLat)
	rep.Post = latencyStats(postLat)
	if crash != nil {
		crash.TTFBAfterCrashUS = firstResp / 1e3
		crash.FirstCommitUS = firstCommit / 1e3
	}
	return rep
}

// latencyStats computes exact percentiles (sorted, interpolated).
func latencyStats(lats []time.Duration) LatencyStats {
	if len(lats) == 0 {
		return LatencyStats{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		idx := p * float64(len(lats)-1)
		lo := int(idx)
		frac := idx - float64(lo)
		v := float64(lats[lo])
		if lo+1 < len(lats) {
			v += frac * float64(lats[lo+1]-lats[lo])
		}
		return v / 1e3 // us
	}
	return LatencyStats{
		N:     len(lats),
		P50us: pct(0.50),
		P95us: pct(0.95),
		P99us: pct(0.99),
		Maxus: float64(lats[len(lats)-1]) / 1e3,
	}
}

// verify replays the ack log against the recovered database: for every
// account, the durable transaction count (the balance, since every
// delta is +1) must cover the acknowledged commits, and the stored
// sequence must cover the highest acknowledged sequence.
func verify(c *client.Conn, acked *ackLog) VerifyStats {
	v := VerifyStats{AckedCommits: acked.total, Unknown: acked.unknown, OK: true}
	for acct, n := range acked.count {
		rows, err := c.Lookup("accounts", "pk", acct)
		if err != nil || len(rows) != 1 {
			fmt.Fprintf(os.Stderr, "mmdbload: verify account %d: %v (%d rows)\n", acct, err, len(rows))
			v.LostCommits += n
			v.OK = false
			continue
		}
		v.AccountsChecked++
		bal, _ := rows[0].Tuple[1].(float64)
		storedSeq, _ := rows[0].Tuple[2].(int64)
		if int64(bal) < n {
			v.LostCommits += n - int64(bal)
			v.OK = false
		}
		if uint64(storedSeq) < acked.maxSeq[acct] {
			v.OK = false
		}
	}
	return v
}

// scrapeServer pulls the server's merged metrics snapshot and distills
// the server-side percentiles for the report. Best effort: a nil return
// (scrape failed) just omits the section.
func scrapeServer(c *client.Conn) *ServerSideStats {
	blob, err := c.Metrics()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmdbload: metrics scrape: %v\n", err)
		return nil
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		fmt.Fprintf(os.Stderr, "mmdbload: metrics decode: %v\n", err)
		return nil
	}
	histP99 := func(sub, name string) float64 {
		if h := snap.Subsystem(sub).Histogram(name); h != nil {
			return h.P99 / 1e3 // ns -> us
		}
		return 0
	}
	gauge := func(sub, name string) int64 {
		ss := snap.Subsystem(sub)
		if ss == nil {
			return 0
		}
		for _, gv := range ss.Gauges {
			if gv.Name == name {
				return gv.Value
			}
		}
		return 0
	}
	return &ServerSideStats{
		Requests:         snap.Subsystem("server").Counter("requests"),
		CrashCycles:      snap.Subsystem("server").Counter("crash_recover_cycles"),
		CommitP99us:      histP99("txn", "commit_latency"),
		GroupWaitP99us:   histP99("txn", "group_commit_wait"),
		SLBWriteP99us:    histP99("slb", "record_write"),
		DebitCreditP99us: histP99("server", "latency_debit-credit"),
		TTP99RestoredUS:  gauge("restart", "ttp99_restored") / 1e3,
	}
}

func printReport(r *Report) {
	fmt.Println()
	fmt.Printf("=== mmdbload report ===\n")
	fmt.Printf("connections        %d\n", r.Conns)
	fmt.Printf("offered            %d\n", r.Offered)
	fmt.Printf("committed          %d (%.0f/s over %.2fs)\n", r.CommittedOK, r.Throughput, r.WallSec)
	fmt.Printf("deadlocks          %d\n", r.Deadlocks)
	fmt.Printf("typed rejections   %d\n", r.Rejected)
	fmt.Printf("errors             %d\n", r.Errors)
	fmt.Printf("transport errors   %d (outcome unknown)\n", r.Transport)
	p := r.Pre
	fmt.Printf("latency pre-crash  p50 %.0fus  p95 %.0fus  p99 %.0fus  max %.0fus  (n=%d)\n",
		p.P50us, p.P95us, p.P99us, p.Maxus, p.N)
	if r.Crash != nil {
		fmt.Printf("crash at           %.2fs into the run\n", r.Crash.AtSec)
		fmt.Printf("server recovery    %dus\n", r.Crash.ServerRecoveryUS)
		fmt.Printf("ttfb after crash   %dus\n", r.Crash.TTFBAfterCrashUS)
		fmt.Printf("first commit after %dus\n", r.Crash.FirstCommitUS)
		q := r.Post
		fmt.Printf("latency post-crash p50 %.0fus  p95 %.0fus  p99 %.0fus  max %.0fus  (n=%d)\n",
			q.P50us, q.P95us, q.P99us, q.Maxus, q.N)
	}
	if s := r.Server; s != nil {
		fmt.Printf("server side        commit p99 %.0fus  group-wait p99 %.0fus  slb-write p99 %.0fus  exec p99 %.0fus\n",
			s.CommitP99us, s.GroupWaitP99us, s.SLBWriteP99us, s.DebitCreditP99us)
		if s.TTP99RestoredUS > 0 {
			fmt.Printf("server restart     ttp99-restored %dus (%d crash cycles)\n", s.TTP99RestoredUS, s.CrashCycles)
		}
	}
	fmt.Printf("ack log            %d commits acknowledged, %d unknown\n", r.Verify.AckedCommits, r.Verify.Unknown)
	if r.Verify.OK {
		fmt.Printf("verification       OK: zero acknowledged commits lost (%d accounts checked)\n", r.Verify.AccountsChecked)
	} else {
		fmt.Printf("verification       FAILED: %d acknowledged commits lost\n", r.Verify.LostCommits)
	}
}
