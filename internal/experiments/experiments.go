// Package experiments regenerates every table and figure of the
// paper's §3 evaluation, plus the restart and logging experiments
// (R2–R5) that go beyond it.
// Each experiment returns structured series so that cmd/paperbench can
// print them and the package tests can assert on their shape.
//
// For each graph we report the paper's analytic value (re-derived by
// internal/model from the Table 2 formulas) next to a measured value
// from the simulator: the real code path run with the same
// per-operation instruction costs charged to a virtual 1-MIPS recovery
// CPU.
package experiments

import (
	"fmt"
	"math/rand"

	"mmdb/internal/addr"
	"mmdb/internal/baseline"
	"mmdb/internal/core"
	"mmdb/internal/lock"
	"mmdb/internal/mm"
	"mmdb/internal/model"
	"mmdb/internal/simdisk"
	"mmdb/internal/txn"
	"mmdb/internal/workload"
)

// Point is one (x, analytic, measured) sample of a series.
type Point struct {
	X        float64
	Analytic float64
	Measured float64
}

// Series is one labelled curve.
type Series struct {
	Label  string
	Points []Point
}

// recHeaderBytes is the typical encoding overhead of a wal.Record with
// small identifiers (compact varint encoding); the paper's
// S_log_record is the total record size.
const recHeaderBytes = 8

// harness is one Manager generation and its store, wired to a trivial
// catalog, for experiments that drive the recovery component directly.
type harness struct {
	m     *core.Manager
	store *mm.Store
}

// attach builds a Manager and an empty store over hw — a fresh database
// or the next generation of a crashed one — behind a map-backed catalog.
// tracks stands in for the recoverable catalog: it holds each
// partition's checkpoint image location and outlives the generations
// that share it, so the images it names are marked in use. pids is what
// the background sweep enumerates.
func attach(hw *core.Hardware, cfg core.Config, tracks map[addr.PartitionID]simdisk.TrackLoc, pids []addr.PartitionID) (*harness, error) {
	store := mm.NewStore(cfg.PartitionSize)
	m, err := core.New(hw, cfg, store, lock.NewManager())
	if err != nil {
		return nil, err
	}
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
			if tr, ok := tracks[pid]; ok {
				return tr, nil
			}
			return simdisk.NilTrack, nil
		},
		AllPartitions: func() ([]addr.PartitionID, error) { return pids, nil },
	})
	for _, tr := range tracks {
		m.MarkTrackUsed(tr)
	}
	return &harness{m: m, store: store}, nil
}

func newHarness(cfg core.Config) (*harness, error) {
	hw, err := core.NewHardware(cfg)
	if err != nil {
		return nil, err
	}
	return attach(hw, cfg, map[addr.PartitionID]simdisk.TrackLoc{}, nil)
}

// diskUS is the simulated disk busy time this generation has been
// charged, log and checkpoint disks together, in microseconds.
func (h *harness) diskUS() int64 {
	mt := h.m.Metrics()
	return mt.SimLogDiskBusy.Value() + mt.SimCkptDiskBusy.Value()
}

// cpuSeconds converts instructions charged to a simulated CPU into
// seconds at the given MIPS rating.
func cpuSeconds(instr int64, mips float64) float64 { return float64(instr) / (mips * 1e6) }

// recover demands partition part of segment 2, which runs its recovery
// transaction if it is not resident.
func (h *harness) recover(part int) error {
	_, err := h.store.Partition(addr.PartitionID{Segment: 2, Part: addr.PartitionNum(part)})
	return err
}

// ensureParts pre-creates partitions so injected records have homes.
func (h *harness) ensureParts(seg addr.SegmentID, n int) {
	h.store.EnsureSegment(seg)
	for i := 0; i < n; i++ {
		_, _ = h.store.AllocPartitionAt(addr.PartitionID{Segment: seg, Part: addr.PartitionNum(i)})
	}
}

// measureLoggingRate pushes nRecords of the given total size through
// the real sorter and returns records/second at the configured
// recovery-CPU MIPS, judged purely by charged instructions.
func measureLoggingRate(cfg core.Config, recordSize, nRecords, nParts int) (float64, error) {
	h, err := newHarness(cfg)
	if err != nil {
		return 0, err
	}
	h.ensureParts(2, nParts)
	h.m.Start()
	defer h.m.Stop()
	payload := recordSize - recHeaderBytes
	if payload < 0 {
		payload = 0
	}
	rng := rand.New(rand.NewSource(42))
	const batch = 512
	txnID := uint64(1)
	for done := 0; done < nRecords; done += batch {
		n := batch
		if nRecords-done < n {
			n = nRecords - done
		}
		recs := workload.RecordStream(rng, n, payload, nParts, nil, 0)
		if err := h.m.InjectCommitted(txnID, recs); err != nil {
			return 0, err
		}
		txnID++
	}
	h.m.WaitIdle()
	secs := cpuSeconds(h.m.Metrics().SimRecoveryInstr.Value(), cfg.Cost.PRecovery)
	if secs <= 0 {
		return 0, fmt.Errorf("experiments: no recovery CPU time charged")
	}
	return float64(nRecords) / secs, nil
}

// Graph1 reproduces Graph 1 (Fig. 5): logging capacity in log records
// per second vs log record size, one series per log page size.
func Graph1(recordSizes []int, pageSizes []int, nRecords int) ([]Series, error) {
	if len(recordSizes) == 0 {
		recordSizes = []int{8, 16, 24, 32, 48, 64}
	}
	if len(pageSizes) == 0 {
		pageSizes = []int{4 << 10, 8 << 10, 16 << 10}
	}
	if nRecords == 0 {
		nRecords = 20000
	}
	var out []Series
	for _, ps := range pageSizes {
		s := Series{Label: fmt.Sprintf("log page %d KB", ps>>10)}
		for _, rs := range recordSizes {
			params := model.PaperParams()
			params.SLogRecord = float64(rs)
			params.SLogPage = float64(ps)
			cfg := core.DefaultConfig()
			cfg.LogPageSize = ps
			cfg.Cost = params
			cfg.UpdateThreshold = 1 << 30 // isolate logging from checkpoints
			cfg.StableBytes = 64 << 20
			meas, err := measureLoggingRate(cfg, rs, nRecords, 8)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{
				X:        float64(rs),
				Analytic: params.RRecordsLogged(),
				Measured: meas,
			})
		}
		out = append(out, s)
	}
	return out, nil
}

// Graph2 reproduces Graph 2 (Fig. 6): maximum transaction rate vs log
// record size, one series per log-records-per-transaction.
func Graph2(recordSizes []int, recsPerTxn []int, nRecords int) ([]Series, error) {
	if len(recordSizes) == 0 {
		recordSizes = []int{8, 16, 24, 32, 48, 64}
	}
	if len(recsPerTxn) == 0 {
		recsPerTxn = []int{1, 4, 10, 20}
	}
	if nRecords == 0 {
		nRecords = 20000
	}
	// Measure the underlying record rate once per record size.
	rate := map[int]float64{}
	for _, rs := range recordSizes {
		params := model.PaperParams()
		params.SLogRecord = float64(rs)
		cfg := core.DefaultConfig()
		cfg.Cost = params
		cfg.UpdateThreshold = 1 << 30
		cfg.StableBytes = 64 << 20
		meas, err := measureLoggingRate(cfg, rs, nRecords, 8)
		if err != nil {
			return nil, err
		}
		rate[rs] = meas
	}
	var out []Series
	for _, rpt := range recsPerTxn {
		s := Series{Label: fmt.Sprintf("%d records/txn", rpt)}
		for _, rs := range recordSizes {
			params := model.PaperParams()
			params.SLogRecord = float64(rs)
			s.Points = append(s.Points, Point{
				X:        float64(rs),
				Analytic: params.MaxTransactionRate(float64(rpt)),
				Measured: rate[rs] / float64(rpt),
			})
		}
		out = append(out, s)
	}
	return out, nil
}

// Graph3 reproduces Graph 3 (Fig. 7): checkpoint frequency vs logging
// rate for mixes of update-count- and age-triggered checkpoints. The
// analytic curves use the paper's worst-case assumption (an aged
// partition accumulated one page); the measured points drive skewed
// workloads through the simulator and report observed checkpoints per
// second of simulated recovery-CPU time at each logging rate.
func Graph3(rates []float64, mixes []float64, nRecords int) ([]Series, error) {
	if len(rates) == 0 {
		rates = []float64{2500, 5000, 7500, 10000, 12500, 15000}
	}
	if len(mixes) == 0 {
		mixes = []float64{0, 0.25, 0.5, 1.0} // fraction checkpointed by age
	}
	if nRecords == 0 {
		nRecords = 30000
	}
	params := model.PaperParams()
	var out []Series
	for _, fAge := range mixes {
		s := Series{Label: fmt.Sprintf("%d%% by age, N_update=%d", int(fAge*100), int(params.NUpdate))}
		meas, err := measureCheckpointMix(fAge, nRecords)
		if err != nil {
			return nil, err
		}
		for _, r := range rates {
			s.Points = append(s.Points, Point{
				X:        r,
				Analytic: params.CheckpointRate(r, 1-fAge, fAge),
				// The measured per-record checkpoint cost scales
				// linearly with the logging rate, as in the paper.
				Measured: meas * r,
			})
		}
		out = append(out, s)
	}
	return out, nil
}

// measureCheckpointMix runs a workload whose partition-access skew
// produces roughly the requested age fraction and returns checkpoints
// per log record.
func measureCheckpointMix(fAge float64, nRecords int) (float64, error) {
	cfg := core.DefaultConfig()
	cfg.PartitionSize = 8 << 10
	cfg.LogPageSize = 2 << 10
	cfg.UpdateThreshold = 1000
	cfg.StableBytes = 128 << 20
	// Age checkpoints come from partitions too cold to reach N_update
	// before the log window passes them: a (1-fAge) share of records
	// hammers two hot partitions (update-count triggers) while the
	// rest spread thinly over many cold partitions that age out of a
	// small window.
	const hot, cold = 2, 40
	nParts := hot + cold
	cfg.LogWindowPages = 32
	cfg.GracePages = 4
	h, err := newHarness(cfg)
	if err != nil {
		return 0, err
	}
	h.ensureParts(2, nParts)
	h.m.Start()
	defer h.m.Stop()
	rng := rand.New(rand.NewSource(7))
	dist := workload.HotCold{N: int64(nParts), Hot: hot, HotProb: 1 - fAge, Rng: rng}
	txnID := uint64(1)
	const batch = 256
	for done := 0; done < nRecords; done += batch {
		recs := workload.RecordStream(rng, batch, 8, nParts, dist, 0)
		if err := h.m.InjectCommitted(txnID, recs); err != nil {
			return 0, err
		}
		txnID++
		// Steady-state pacing: in the paper's system the log arrives
		// at transaction-processing speed, so checkpoints keep up;
		// letting the component quiesce per batch emulates that
		// instead of letting one fence swallow the whole run.
		h.m.WaitIdle()
	}
	st := h.m.Metrics()
	ckpts := float64(st.CkptByUpdateCount.Value() + st.CkptByAge.Value())
	return ckpts / float64(nRecords), nil
}

// RecoveryResult summarises experiment R1 (§3.4 / §3.4.1).
type RecoveryResult struct {
	Partitions       int
	HotPartitions    int
	PartLevelFirstUS int64 // partition-level: simulated µs until first txn can run
	PartLevelFullUS  int64 // partition-level: µs until whole DB restored
	DBLevelFirstUS   int64 // database-level: full reload required before any txn
	SpeedupFirstTxn  float64
}

// RecoveryComparison builds a database of nParts partitions (hotParts
// of which the post-crash workload demands immediately), crashes it,
// and compares partition-level on-demand recovery against
// database-level full reload, in simulated disk time. The checkpoint
// track map survives the crash in place of the recoverable catalog
// (whose restore cost is one extra partition for both designs).
func RecoveryComparison(nParts, hotParts, recsPerPart int) (*RecoveryResult, error) {
	cfg := restartConfig()
	base := baseline.New(cfg.PartitionSize, cfg.LogPageSize, 4*nParts+16, cfg.Disk)
	f, err := crashedFixture(cfg, nParts, recsPerPart, base, nil)
	if err != nil {
		return nil, err
	}
	// Partition-level recovery: the first transaction can run as soon
	// as the hot partitions, demanded first, are resident.
	res := &RecoveryResult{Partitions: nParts, HotPartitions: hotParts}
	if res.PartLevelFirstUS, res.PartLevelFullUS, err = f.demandAll(hotParts); err != nil {
		return nil, err
	}
	// Database-level recovery: the entire database must be reloaded
	// and the whole log processed before any transaction runs.
	baseUS := func() int64 { return base.LogDiskBusy.Value() + base.CkptDiskBusy.Value() }
	before := baseUS()
	if _, err := base.Recover(cfg.PartitionSize); err != nil {
		return nil, err
	}
	res.DBLevelFirstUS = baseUS() - before
	if res.PartLevelFirstUS > 0 {
		res.SpeedupFirstTxn = float64(res.DBLevelFirstUS) / float64(res.PartLevelFirstUS)
	}
	return res, nil
}

// FormatSeries renders series as an aligned text table.
func FormatSeries(title, xLabel, yLabel string, series []Series) string {
	out := fmt.Sprintf("%s\n  %-12s", title, xLabel)
	for _, s := range series {
		out += fmt.Sprintf("  %28s", s.Label)
	}
	out += fmt.Sprintf("\n  %-12s", "")
	for range series {
		out += fmt.Sprintf("  %13s %14s", "analytic", "measured")
	}
	out += "\n"
	if len(series) == 0 || len(series[0].Points) == 0 {
		return out
	}
	for i := range series[0].Points {
		out += fmt.Sprintf("  %-12.4g", series[0].Points[i].X)
		for _, s := range series {
			out += fmt.Sprintf("  %13.4g %14.4g", s.Points[i].Analytic, s.Points[i].Measured)
		}
		out += "\n"
	}
	out += fmt.Sprintf("  (y = %s)\n", yLabel)
	return out
}
