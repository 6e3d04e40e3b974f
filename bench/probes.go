package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"mmdb"
	"mmdb/internal/addr"
	"mmdb/internal/archive"
	"mmdb/internal/catalog"
	"mmdb/internal/core"
	"mmdb/internal/heat"
	"mmdb/internal/linhash"
	"mmdb/internal/lock"
	"mmdb/internal/mm"
	"mmdb/internal/server/proto"
	"mmdb/internal/simdisk"
	"mmdb/internal/stablemem"
	"mmdb/internal/ttree"
	"mmdb/internal/txn"
	"mmdb/internal/wal"
)

// Probes time the public functions of each internal package directly, on
// inputs captured from the workload that just ran (its log pages and
// records, its tuples, its root, its partition count). They say what one call
// of a layer costs today; the README says which end-to-end metric each
// should move.

// probeBatches is the number of timed batches per probe; the reported value
// is the median batch's time per call.
const probeBatches = 15

type probeResult struct {
	values   map[string]float64
	dcSpans  []span  // facade spans of the wire-gap probe's in-process half
	dcTracer *tracer // the same, for the span file
	closeDB  func() error
}

// perCall runs fn in probeBatches batches of per calls and returns the
// median batch's nanoseconds per call.
func perCall(per int, fn func()) float64 {
	times := make([]float64, probeBatches)
	for b := range times {
		start := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		times[b] = float64(time.Since(start)) / float64(per)
	}
	return median(times)
}

// captured is what the probes take from the workload.
type captured struct {
	pages  [][]byte // encoded log pages, as the sorter flushed them
	recs   []wal.Record
	encs   [][]byte // the same records, encoded
	pids   []addr.PartitionID
	schema mmdb.Schema
	tuple  mmdb.Tuple
	enc    []byte
	root   *catalog.Root
}

func capture(db *mmdb.DB, workload string, sz sizes) (*captured, error) {
	c := &captured{root: db.Manager().RootCopy()}
	hw := db.Manager().Hardware()
	for lsn := hw.Log.NextLSN() - 1; lsn >= 1 && len(c.pages) < 64; lsn-- {
		raw, err := hw.Log.Read(lsn)
		if err != nil {
			continue // rolled to the archive already
		}
		pg, err := wal.DecodePage(raw)
		if err != nil {
			return nil, fmt.Errorf("log page %d: %w", lsn, err)
		}
		if pg.PID == core.RootSentinelPID() {
			continue // a copy of the root, not records
		}
		recs, err := wal.DecodeAll(pg.Records)
		if err != nil {
			return nil, fmt.Errorf("log page %d records: %w", lsn, err)
		}
		c.pages = append(c.pages, raw)
		c.recs = append(c.recs, recs...)
	}
	// The partial pages still in the stable log tail are workload records too.
	for _, r := range db.Manager().BinResidues() {
		if len(c.recs) >= 8192 {
			break
		}
		recs, err := wal.DecodeAll(r.Records)
		if err != nil {
			return nil, fmt.Errorf("bin residue %v: %w", r.PID, err)
		}
		c.recs = append(c.recs, recs...)
	}
	if len(c.recs) == 0 || len(c.pages) == 0 {
		return nil, fmt.Errorf("no log pages or records to capture")
	}
	seen := map[addr.PartitionID]bool{}
	for i := range c.recs {
		c.encs = append(c.encs, c.recs[i].Encode(nil))
		if pid := c.recs[i].PID; !seen[pid] {
			seen[pid] = true
			c.pids = append(c.pids, pid)
		}
	}
	// The tuple the workload reads and writes most.
	if isDC(workload) {
		c.schema, c.tuple = accountSchema, mmdb.Tuple{int64(1), 2.0, int64(3)}
	} else {
		pad := make([]byte, padBytes)
		for i := range pad {
			pad[i] = 'x'
		}
		c.schema, c.tuple = bulkSchema, mmdb.Tuple{int64(1), 2.0, int64(3), string(pad)}
	}
	enc, err := c.schema.Encode(c.tuple)
	if err != nil {
		return nil, err
	}
	c.enc = enc
	return c, nil
}

// memPager is the index packages' Pager over a private store: the same
// partitions and first-fit placement the engine uses, without transactions.
type memPager struct {
	st  *mm.Store
	seg addr.SegmentID
}

func (p memPager) Read(a addr.EntityAddr) ([]byte, error) { return p.st.Read(a) }

func (p memPager) Insert(data []byte) (addr.EntityAddr, error) {
	for _, part := range p.st.Partitions(p.seg) {
		if s, err := part.Insert(data); err == nil {
			return addr.EntityAddr{Segment: p.seg, Part: part.ID().Part, Slot: s}, nil
		}
	}
	part, err := p.st.AllocPartition(p.seg)
	if err != nil {
		return addr.Nil, err
	}
	s, err := part.Insert(data)
	return addr.EntityAddr{Segment: p.seg, Part: part.ID().Part, Slot: s}, err
}

func (p memPager) Update(a addr.EntityAddr, data []byte) error {
	part, err := p.st.Partition(a.Partition())
	if err != nil {
		return err
	}
	return part.Update(a.Slot, data)
}

func (p memPager) Delete(a addr.EntityAddr) error {
	part, err := p.st.Partition(a.Partition())
	if err != nil {
		return err
	}
	return part.Delete(a.Slot)
}

// probeIndexRows is the size of the private relation the index probes build.
const probeIndexRows = 1000

func runProbes(o options, sz sizes, cfg mmdb.Config, exec *inproc, wireEng *wire, epoch time.Time) (*probeResult, error) {
	db := exec.d
	if wireEng != nil {
		db = wireEng.db()
	}
	if err := exec.attach(db); err != nil {
		return nil, err
	}
	c, err := capture(db, o.workload, sz)
	if err != nil {
		return nil, err
	}
	n := sz.probeIters
	v := map[string]float64{}
	res := &probeResult{values: v}

	// lock: one entity X lock under its relation IX lock, then release.
	lm := lock.NewManager()
	id := uint64(0)
	v["lock.acquire_release_ns"] = perCall(n, func() {
		id++
		_ = lm.Lock(id, lock.Relation(1), lock.IX) // uncontended: cannot fail
		_ = lm.Lock(id, lock.Entity(id), lock.X)
		lm.ReleaseAll(id)
	})

	// heap: the workload's main tuple.
	v["heap.encode_ns"] = perCall(n, func() { _, _ = c.schema.Encode(c.tuple) })
	v["heap.decode_ns"] = perCall(n, func() { _, _ = c.schema.Decode(c.enc) })

	if err := probeMM(c, cfg, exec, n, v); err != nil {
		return nil, err
	}
	if err := probeIndexes(c, cfg, n, v); err != nil {
		return nil, err
	}

	// wal and stablemem: the captured records and pages, one call per record.
	i := 0
	var buf []byte
	v["wal.encode_ns_per_rec"] = perCall(n, func() {
		buf = c.recs[i%len(c.recs)].Encode(buf[:0])
		i++
	})
	v["wal.decode_ns_per_rec"] = perCall(n, func() {
		_, _, _ = wal.Decode(c.encs[i%len(c.encs)])
		i++
	})
	v["wal.page_decode_us"] = perCall(n/4+1, func() {
		_, _ = wal.DecodePage(c.pages[i%len(c.pages)])
		i++
	}) / 1e3
	sm := stablemem.New(1<<20, cfg.StableSlowdown, nil)
	blk, err := sm.NewBlock(cfg.SLBBlockSize)
	if err != nil {
		return nil, err
	}
	v["stablemem.append_ns_per_rec"] = perCall(n, func() {
		e := c.encs[i%len(c.encs)]
		i++
		if len(e) > blk.Size() {
			return
		}
		if blk.Remaining() < len(e) {
			blk.Reset()
		}
		_ = blk.Append(e) // fits: checked above
	})

	// simdisk: the captured pages onto a fresh duplexed log; a partition
	// image onto a fresh checkpoint disk.
	dl := simdisk.NewDuplexLog(cfg.Disk, nil)
	v["simdisk.log_append_us_per_page"] = perCall(n/4+1, func() {
		_, _ = dl.Append(c.pages[i%len(c.pages)])
		i++
	}) / 1e3
	image := mm.NewPartition(addr.PartitionID{Segment: addr.FirstUserSegment}, cfg.PartitionSize)
	for {
		if _, err := image.Insert(c.enc); err != nil {
			break
		}
	}
	snap := image.Snapshot()
	cd := simdisk.NewCheckpointDisk(64, cfg.Disk, nil)
	v["simdisk.track_write_us"] = perCall(n/4+1, func() {
		_ = cd.WriteTrack(simdisk.TrackLoc(i%64), snap)
		i++
	}) / 1e3
	v["simdisk.track_read_us"] = perCall(n/4+1, func() {
		_, _ = cd.ReadTrack(simdisk.TrackLoc(i % 64))
		i++
	}) / 1e3

	// archive: the captured pages into a fresh in-memory store, then one
	// partition's pages back out.
	arch, err := archive.Open("", cfg.ArchiveSegmentBytes)
	if err != nil {
		return nil, err
	}
	lsn := simdisk.LSN(0)
	v["archive.append_us_per_page"] = perCall(n/4+1, func() {
		lsn++
		_ = arch.AppendPage(c.pids[int(lsn)%len(c.pids)], lsn, c.pages[int(lsn)%len(c.pages)])
	}) / 1e3
	if err := arch.Sync(); err != nil {
		return nil, err
	}
	v["archive.scan_part_us"] = perCall(n/16+1, func() {
		_ = arch.ScanPartition(c.pids[i%len(c.pids)], func(simdisk.LSN, []byte) error { return nil })
		i++
	}) / 1e3
	if err := arch.Close(); err != nil {
		return nil, err
	}

	// catalog: the live root, and a relation descriptor as long as bulk's.
	rootEnc := c.root.Encode()
	v["catalog.decode_root_us"] = perCall(n, func() { _, _ = catalog.DecodeRoot(rootEnc) }) / 1e3
	desc := catalog.RelationDesc{RelID: 9, Name: "bulk", Seg: addr.FirstUserSegment, Schema: bulkSchema}
	for p := 0; p < segmentParts(db, "bulk"); p++ {
		desc.Parts = append(desc.Parts, catalog.PartState{Part: addr.PartitionNum(p), Track: simdisk.TrackLoc(p)})
	}
	descEnc := desc.Encode()
	v["catalog.decode_relation_us"] = perCall(n/4+1, func() { _, _ = catalog.DecodeRelation(descEnc) }) / 1e3

	// heat: touches over the workload's partitions.
	ht, _, _, err := heat.Attach(stablemem.New(1<<20, cfg.StableSlowdown, nil), cfg.HeatSnapshotBytes, cfg.HeatPersistEvery, 0)
	if err != nil {
		return nil, err
	}
	v["heat.touch_ns"] = perCall(n, func() {
		ht.Touch(c.pids[i%len(c.pids)])
		i++
	})

	// proto: one debit/credit request and its response.
	req := proto.Request{ID: 7, Op: proto.OpDebitCredit, Account: 1234, Teller: 56, Branch: 7, Delta: 1, Seq: 99}
	resp := proto.Response{ID: 7, Status: proto.StatusOK, Seq: 99, Val: 42}
	reqEnc := proto.AppendRequest(nil, &req)
	v["proto.encode_req_ns"] = perCall(n, func() { buf = proto.AppendRequest(buf[:0], &req) })
	v["proto.decode_req_ns"] = perCall(n, func() { _, _, _ = proto.DecodeRequest(reqEnc) })
	v["proto.encode_resp_ns"] = perCall(n, func() { buf = proto.AppendResponse(buf[:0], &resp) })

	if v["core.sort_rec_per_s"], err = probeSorter(c, cfg); err != nil {
		return nil, err
	}
	if err := probeWire(sz, cfg, exec, wireEng, epoch, res); err != nil {
		return nil, err
	}
	return res, nil
}

// probeMM times partition operations on the workload's tuple: first-fit
// insert into a segment as full as history is at the end of a round, a
// single-column overwrite, a read, a checkpoint snapshot and its reload.
func probeMM(c *captured, cfg mmdb.Config, exec *inproc, n int, v map[string]float64) error {
	parts := segmentParts(exec.d, "history")
	if parts < 1 {
		parts = 1
	}
	st := mm.NewStore(cfg.PartitionSize)
	seg := st.CreateSegment()
	var last *mm.Partition
	for p := 0; p < parts; p++ {
		part, err := st.AllocPartition(seg)
		if err != nil {
			return err
		}
		last = part
		if p == parts-1 {
			break // the newest partition keeps room
		}
		for {
			if _, err := part.Insert(c.enc); err != nil {
				break
			}
		}
	}
	slot, err := last.Insert(c.enc)
	if err != nil {
		return err
	}
	// What txn.InsertEntity does for placement, with mm's public calls.
	v["mm.insert_ns"] = perCall(n, func() {
		for _, part := range st.Partitions(seg) {
			part.Latch()
			s, err := part.Insert(c.enc)
			if err == nil {
				_ = part.Delete(s) // keep the fill constant
			}
			part.Unlatch()
			if err == nil {
				return
			}
		}
	})
	val := c.enc[8:16]
	v["mm.update_ns"] = perCall(n, func() { _ = last.WriteAt(slot, 8, val) })
	v["mm.read_ns"] = perCall(n, func() { _, _ = last.Read(slot) })
	full := st.Partitions(seg)[0]
	var image []byte
	v["mm.snapshot_us"] = perCall(n/4+1, func() { image = full.Snapshot() }) / 1e3
	v["mm.fromimage_us"] = perCall(n/4+1, func() { _, _ = mm.FromImage(full.ID(), image) }) / 1e3
	return nil
}

// probeIndexes builds a private relation of the workload's tuples with a
// linear-hash and a T-Tree index over a memPager, with the facade's own
// key extraction (decode the tuple, take the column), and times look-ups.
// linhash.insert_ns is the build itself, per entry.
func probeIndexes(c *captured, cfg mmdb.Config, n int, v map[string]float64) error {
	st := mm.NewStore(cfg.PartitionSize)
	rows := memPager{st, st.CreateSegment()}
	entries := make([]uint64, probeIndexRows)
	for i := range entries {
		t := c.tuple.Clone()
		t[0] = int64(i)
		enc, err := c.schema.Encode(t)
		if err != nil {
			return err
		}
		a, err := rows.Insert(enc)
		if err != nil {
			return err
		}
		entries[i] = a.Pack()
	}
	keyOf := func(e uint64) (int64, error) {
		raw, err := st.Read(addr.Unpack(e))
		if err != nil {
			return 0, err
		}
		t, err := c.schema.Decode(raw)
		if err != nil {
			return 0, err
		}
		return t[0].(int64), nil
	}
	hashKey := func(k int64) uint64 {
		h := fnv.New64a()
		var b [8]byte
		for i := range b {
			b[i] = byte(k >> (8 * i))
		}
		_, _ = h.Write(b[:])
		return h.Sum64()
	}
	cmp := func(x, y int64) int {
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}

	hp := memPager{st, st.CreateSegment()}
	tb, _, err := linhash.Create(hp, 16,
		func(e uint64) (uint64, error) {
			k, err := keyOf(e)
			return hashKey(k), err
		},
		func(key any, e uint64) (bool, error) {
			k, err := keyOf(e)
			return k == key.(int64), err
		})
	if err != nil {
		return err
	}
	start := time.Now()
	for _, e := range entries {
		if err := tb.Insert(e); err != nil {
			return err
		}
	}
	v["linhash.insert_ns"] = float64(time.Since(start)) / float64(len(entries))
	k := int64(0)
	found := 0
	v["linhash.lookup_ns"] = perCall(n, func() {
		k = (k + 7) % probeIndexRows
		_ = tb.Lookup(k, hashKey(k), func(uint64) bool { found++; return true })
	})

	tp := memPager{st, st.CreateSegment()}
	tr, _, err := ttree.Create(tp, 16,
		func(a, b uint64) (int, error) {
			ka, err := keyOf(a)
			if err != nil {
				return 0, err
			}
			kb, err := keyOf(b)
			if c := cmp(ka, kb); c != 0 || err != nil {
				return c, err
			}
			return cmp(int64(a), int64(b)), nil
		},
		func(key any, e uint64) (int, error) {
			ke, err := keyOf(e)
			return cmp(key.(int64), ke), err
		})
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := tr.Insert(e); err != nil {
			return err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calls := 0
	v["ttree.lookup_ns"] = perCall(n, func() {
		k = (k + 7) % probeIndexRows
		_ = tr.Search(k, func(uint64) bool { found++; return true })
		calls++
	})
	runtime.ReadMemStats(&m1)
	v["ttree.lookup_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(calls)
	v["ttree.range20_ns"] = perCall(n/4+1, func() {
		k = (k + 7) % (probeIndexRows - rangeLen)
		_ = tr.Range(k, k+rangeLen-1, func(uint64) bool { found++; return true })
	})
	if found == 0 {
		return fmt.Errorf("index probes found nothing")
	}
	return nil
}

// probeSorter pushes the captured records through a real recovery
// component — SLB, sorter, bin pages, log disk, checkpoints — as committed
// transactions and returns records per second of wall time: the paper's
// logging capacity, at this sandbox's speed.
func probeSorter(c *captured, cfg mmdb.Config) (float64, error) {
	hw, err := core.NewHardware(cfg)
	if err != nil {
		return 0, err
	}
	st := mm.NewStore(cfg.PartitionSize)
	m, err := core.New(hw, cfg, st, lock.NewManager())
	if err != nil {
		return 0, err
	}
	tracks := map[addr.PartitionID]simdisk.TrackLoc{}
	m.SetCallbacks(core.Callbacks{
		OwnerRel: func(addr.PartitionID) (uint64, bool) { return 1, true },
		InstallCkpt: func(_ *txn.Txn, pid addr.PartitionID, track simdisk.TrackLoc) (simdisk.TrackLoc, error) {
			old, ok := tracks[pid]
			if !ok {
				old = simdisk.NilTrack
			}
			tracks[pid] = track
			return old, nil
		},
		Locate: func(pid addr.PartitionID) (simdisk.TrackLoc, error) {
			if t, ok := tracks[pid]; ok {
				return t, nil
			}
			return simdisk.NilTrack, nil
		},
		AllPartitions: func() ([]addr.PartitionID, error) { return nil, nil },
	})
	for _, pid := range c.pids {
		st.EnsureSegment(pid.Segment)
		if _, err := st.AllocPartitionAt(pid); err != nil {
			return 0, err
		}
	}
	m.Start()
	defer m.Stop()
	const perTxn = 8
	total := 0
	start := time.Now()
	for pass := 0; pass < 4; pass++ {
		for lo := 0; lo < len(c.recs); lo += perTxn {
			hi := lo + perTxn
			if hi > len(c.recs) {
				hi = len(c.recs)
			}
			batch := append([]wal.Record(nil), c.recs[lo:hi]...)
			if err := m.InjectCommitted(uint64(total+1), batch); err != nil {
				return 0, err
			}
			total += len(batch)
		}
	}
	m.WaitIdle()
	return float64(total) / time.Since(start).Seconds(), nil
}

// probeWire runs debit/credit alternately through the facade and through the
// wire on the same instance: the difference of the two median latencies is
// the wire gap, and the server's own registry gives its per-request costs.
// On dc_wire the workload's server is used; elsewhere one is started over
// the workload's database, which it then owns.
func probeWire(sz sizes, cfg mmdb.Config, exec *inproc, w *wire, epoch time.Time, res *probeResult) error {
	if w == nil {
		var err error
		if w, err = newWire(exec.d, cfg, 1); err != nil {
			return err
		}
		res.closeDB = w.close
	}
	g := newGenerator(wDCInproc, 0xd1ce, sz)
	tr := newTracer(epoch)
	const batch = 25
	batches := sz.probeIters/batch + 1
	var inUS, wireUS, pingUS []float64
	for b := 0; b < batches; b++ {
		for _, o := range g.round(batch) {
			start := time.Now()
			if err := exec.one(o, tr, int64(len(inUS))); err != nil {
				return fmt.Errorf("in-process debit/credit: %w", err)
			}
			inUS = append(inUS, float64(time.Since(start))/1e3)
		}
		for _, o := range g.round(batch) {
			start := time.Now()
			if err := w.one(o, nil, 0); err != nil {
				return fmt.Errorf("wire debit/credit: %w", err)
			}
			wireUS = append(wireUS, float64(time.Since(start))/1e3)
		}
		for i := 0; i < batch; i++ {
			start := time.Now()
			if err := w.conns[0].Ping(); err != nil {
				return fmt.Errorf("ping: %w", err)
			}
			pingUS = append(pingUS, float64(time.Since(start))/1e3)
		}
	}
	v := res.values
	v["server.wire_gap_us"] = median(wireUS) - median(inUS)
	v["client.ping_rtt_us"] = median(pingUS)
	res.dcSpans, res.dcTracer = tr.spans, tr

	led := newLedger()
	led.add(w.srv.Metrics())
	reqs := led.count("server/latency_" + proto.OpDebitCredit.String())
	v["server.exec_p50_us"] = led.quantile("server/latency_"+proto.OpDebitCredit.String(), 0.5) / 1e3
	v["server.requests_per_flush"] = 0
	if f := led.counter("server/flushes"); f > 0 {
		v["server.requests_per_flush"] = led.counter("server/requests") / f
	}
	v["server.bytes_per_txn"] = 0
	if reqs > 0 {
		v["server.bytes_per_txn"] = (led.counter("server/bytes_in") + led.counter("server/bytes_out")) / led.counter("server/requests")
	}
	return nil
}
