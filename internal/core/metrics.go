package core

import (
	"fmt"

	"mmdb/internal/metrics"
)

// Metrics bundles every instrument of the recovery component, grouped
// into the per-subsystem registries exposed by DB.Metrics(). Each
// instrument is a preallocated atomic slot; hot paths (record writes,
// page flushes, sorting) pay one atomic add per event.
//
// The subsystems map onto the paper's architecture:
//
//	txn        — main-CPU transaction processing (§2.3.1 instant commit)
//	slb        — Stable Log Buffer record writes (§2.3.1)
//	log        — recovery-CPU sorter, bin page flushes, log window,
//	             archive rollover (§2.3.3)
//	checkpoint — per-partition checkpoint transactions (§2.4)
//	restart    — post-crash two-phase recovery (§2.5)
//	lock       — 2PL lock waits and deadlocks (§2.3.2)
//	sim        — the §3 analysis's simulated costs: instructions charged
//	             to the 1-MIPS recovery CPU, stable-memory byte
//	             references, and disk busy time
type Metrics struct {
	reg *metrics.Registry

	// txn — validates the instant-commit claim: commit latency must be
	// memory-speed, with no log-I/O synchronisation in its tail.
	// GroupCommitWait is the epoch-seal wait inside CommitTxn — the
	// group-commit component of commit latency.
	CommitLatency   *metrics.Histogram
	GroupCommitWait *metrics.Histogram
	TxnsCommitted   *metrics.Counter
	TxnsAborted     *metrics.Counter

	// slb — the main-CPU side of logging: latency of one REDO record
	// write into stable memory, the per-core stream fan-out, and the
	// epoch-seal cadence.
	SLBRecordWrite *metrics.Histogram
	Streams        *metrics.Gauge
	StreamRecords  []*metrics.Counter
	EpochsSealed   *metrics.Counter
	EpochChains    *metrics.Histogram
	EpochRollbacks *metrics.Counter

	// log — the recovery-CPU side: sorting committed chains into
	// partition bins and flushing full bin pages to the log disk.
	PageFlushLatency *metrics.Histogram
	RecordsSorted    *metrics.Counter
	BytesSorted      *metrics.Counter
	PagesFlushed     *metrics.Counter
	PagesArchived    *metrics.Counter
	WindowOverruns   *metrics.Counter

	// checkpoint — per-partition checkpoint cost, the amortisation the
	// paper's Graph 3 is about.
	CkptDuration      *metrics.Histogram
	CkptImageBytes    *metrics.Histogram
	CkptByUpdateCount *metrics.Counter
	CkptByAge         *metrics.Counter
	CkptCompleted     *metrics.Counter
	CkptFailed        *metrics.Counter
	CkptAbandoned     *metrics.Counter

	// restart — the foreground/background split of §2.5: root scan
	// (catalog restore) happens before the first transaction; partition
	// recovery is on demand; the background sweep covers the rest.
	// The progress gauges publish live restart state: partitions
	// recovered vs total, the heat-weighted fraction restored (ppm),
	// and TTP99Restored — the nanoseconds from Restart until ≥99% of
	// pre-crash access weight was resident again.
	RestartRootScan     *metrics.Histogram
	PartitionRecovery   *metrics.Histogram
	BackgroundSweep     *metrics.Histogram
	SweepWorkerTime     *metrics.Histogram
	PartsRecovered      *metrics.Counter
	RecoveryLogPages    *metrics.Counter
	RecoverySweepErrors *metrics.Counter
	SweepPartsPerSec    *metrics.Gauge
	RestartPartsTotal   *metrics.Gauge
	HeatWeightPPM       *metrics.Gauge
	TTP99Restored       *metrics.Gauge
	// Replay-side corruption detection: every record or page that fails
	// its CRC/format check during sort or replay is quarantined (skipped
	// and counted), never applied. CorruptDetected counts detection
	// events across all replay parsers; QuarantinedRecords counts the
	// records confirmed lost to a quarantined byte range;
	// ImagesQuarantined counts whole checkpoint images given up on
	// (stale catalog track, envelope checksum mismatch, or structural
	// rot) — distinct from the per-record counter, because one lost
	// image is not one lost record.
	// TornTailCuts counts undecodable bin-tail suffixes cut back, when
	// the bin is first touched after a crash, without a checksum
	// mismatch: a torn final append from the crash itself, or
	// tail-truncating rot — the two are physically indistinguishable,
	// so the cut is surfaced as evidence either way.
	QuarantinedRecords *metrics.Counter
	CorruptDetected    *metrics.Counter
	ImagesQuarantined  *metrics.Counter
	TornTailCuts       *metrics.Counter

	// archive — the append-only segment store (§2.6) and the
	// partition-granular rebuild path that turns a rotted checkpoint
	// image into a repair instead of a loss. ArchRebuildFailed counts
	// the degraded path: the archive itself could not serve and
	// recovery fell back to an announced empty image.
	ArchSegments      *metrics.Counter
	ArchRebuilds      *metrics.Counter
	ArchRebuildFailed *metrics.Counter
	ArchRebuildTime   *metrics.Histogram

	// heat — per-partition access-heat tracking (internal/heat): the
	// crash-surviving ranking behind heat-ordered recovery.
	HeatTouches         *metrics.Counter
	HeatPersists        *metrics.Counter
	HeatDecays          *metrics.Counter
	HeatTrackedParts    *metrics.Gauge
	HeatSnapshotBytes   *metrics.Gauge
	HeatRecoveredParts  *metrics.Gauge
	HeatSnapshotRejects *metrics.Counter

	// lock — contention on the 2PL substrate.
	LockWait  *metrics.Histogram
	Deadlocks *metrics.Counter

	// fault — injected-fault activity plus the §2.2 duplexed-log repair
	// path (mirror fallback reads and bad-copy rewrites), which only
	// fires when a spindle's copy is damaged or missing.
	FaultsArmed     *metrics.Counter
	FaultsTriggered *metrics.Counter
	FaultTornWrites *metrics.Counter
	MutationsArmed  *metrics.Counter
	MutationsFired  *metrics.Counter
	DuplexFallbacks *metrics.Counter
	DuplexRepairs   *metrics.Counter

	// checkpoint write-verify: image writes whose stored bytes did not
	// match what the checkpoint transaction meant to write (silent track
	// rot caught before the catalog switched to the new image).
	CkptVerifyFailed *metrics.Counter

	// sim — the paper's §3 cost model, charged from the real code paths
	// instead of slept: the recovery CPU charges Table 2 instruction
	// counts, each simulated device the one counter New points it at.
	// internal/experiments turns deltas of these into the paper's rates.
	SimRecoveryInstr *metrics.Counter
	SimStableRefs    *metrics.Counter
	SimLogDiskBusy   *metrics.Counter
	SimCkptDiskBusy  *metrics.Counter
}

// newMetrics builds the instrument set on a fresh registry. streams is
// the resolved SLB stream count (it can differ from Config.LogStreams
// when a non-empty buffer survived a crash with a different count), so
// the per-stream counters match the buffer actually attached.
func newMetrics(streams int) *Metrics {
	reg := metrics.NewRegistry()
	txn := reg.Subsystem("txn")
	slb := reg.Subsystem("slb")
	logS := reg.Subsystem("log")
	ckpt := reg.Subsystem("checkpoint")
	restart := reg.Subsystem("restart")
	archS := reg.Subsystem("archive")
	heatS := reg.Subsystem("heat")
	lockS := reg.Subsystem("lock")
	faultS := reg.Subsystem("fault")
	simS := reg.Subsystem("sim")
	streamRecords := make([]*metrics.Counter, streams)
	for i := range streamRecords {
		streamRecords[i] = slb.Counter(fmt.Sprintf("stream%02d_records", i), "records",
			fmt.Sprintf("REDO records appended to log stream %d", i))
	}
	return &Metrics{
		reg: reg,

		CommitLatency: txn.Histogram("commit_latency", "ns",
			"begin-to-commit latency of user transactions (§2.3.1 instant commit)"),
		GroupCommitWait: txn.Histogram("group_commit_wait", "ns",
			"time CommitTxn waits for its epoch to seal across all log streams"),
		TxnsCommitted: txn.Counter("commits", "txns", "committed transactions"),
		TxnsAborted:   txn.Counter("aborts", "txns", "aborted transactions"),

		SLBRecordWrite: slb.Histogram("record_write", "ns",
			"latency of one REDO record write into the Stable Log Buffer"),
		Streams:       slb.Gauge("streams", "streams", "per-core log stream count of the attached SLB"),
		StreamRecords: streamRecords,
		EpochsSealed:  slb.Counter("epochs_sealed", "epochs", "group-commit epochs sealed across all streams"),
		EpochChains: slb.Histogram("epoch_chains", "chains",
			"transaction chains made durable per sealed epoch (group size)"),
		EpochRollbacks: slb.Counter("epoch_rollbacks", "chains",
			"committed-but-unsealed chains rolled back at restart (half-sealed epochs)"),

		PageFlushLatency: logS.Histogram("page_flush", "ns",
			"latency of one bin page write to the duplexed log disks (§2.3.3)"),
		RecordsSorted:  logS.Counter("records_sorted", "records", "records moved SLB -> SLT bins"),
		BytesSorted:    logS.Counter("bytes_sorted", "bytes", "record bytes moved into bins"),
		PagesFlushed:   logS.Counter("pages_flushed", "pages", "bin pages written to the log disk"),
		PagesArchived:  logS.Counter("pages_archived", "pages", "log pages rolled to the archive tape (§2.6)"),
		WindowOverruns: logS.Counter("window_overruns", "events", "pages kept past the log window for safety"),

		CkptDuration: ckpt.Histogram("duration", "ns",
			"wall time of one checkpoint transaction, fence to commit (§2.4)"),
		CkptImageBytes: ckpt.Histogram("image_bytes", "bytes",
			"partition image size written per checkpoint"),
		CkptByUpdateCount: ckpt.Counter("triggered_by_update_count", "ckpts", "checkpoints triggered at N_update"),
		CkptByAge:         ckpt.Counter("triggered_by_age", "ckpts", "checkpoints triggered by the log window (§2.3.3)"),
		CkptCompleted:     ckpt.Counter("completed", "ckpts", "checkpoint transactions committed"),
		CkptFailed:        ckpt.Counter("failed", "ckpts", "checkpoint attempts that aborted"),
		CkptAbandoned:     ckpt.Counter("abandoned", "ckpts", "requests dropped unserved: repeated failures, or the partition was freed"),
		CkptVerifyFailed: ckpt.Counter("verify_failed", "ckpts",
			"image writes whose read-back bytes mismatched (silent track rot detected by write-verify)"),

		RestartRootScan: restart.Histogram("root_scan", "ns",
			"stable-root + catalog restore time before the first transaction (§2.5)"),
		PartitionRecovery: restart.Histogram("partition_recovery", "ns",
			"per-partition recovery transaction time: image read + log replay (§2.5)"),
		BackgroundSweep: restart.Histogram("background_sweep", "ns",
			"total background-recovery sweep time (§2.5 method 2)"),
		SweepWorkerTime: restart.Histogram("sweep_worker", "ns",
			"per-worker wall-clock of the parallel background sweep (one observation per worker)"),
		PartsRecovered:      restart.Counter("partitions_recovered", "parts", "partitions restored post-crash"),
		RecoveryLogPages:    restart.Counter("log_pages_read", "pages", "log pages read during recovery"),
		RecoverySweepErrors: restart.Counter("sweep_errors", "errors", "failed recovery attempts during the background sweep (enumeration + per-partition)"),
		SweepPartsPerSec:    restart.Gauge("sweep_parts_per_sec", "parts/s", "background-sweep recovery throughput of the last completed sweep"),
		RestartPartsTotal:   restart.Gauge("parts_total", "parts", "partitions the current restart generation must recover (set when the sweep enumerates the catalogs)"),
		HeatWeightPPM: restart.Gauge("heat_weight_restored_ppm", "ppm",
			"parts-per-million of pre-crash access weight resident again (heat-weighted restart progress)"),
		TTP99Restored: restart.Gauge("ttp99_restored", "ns",
			"time from Restart until >=99% of pre-crash access weight was resident (0 until stamped)"),
		QuarantinedRecords: restart.Counter("quarantined_records", "records",
			"REDO records lost to quarantined corrupt byte ranges during sort/replay (never applied)"),
		CorruptDetected: restart.Counter("corrupt_records_detected", "events",
			"replay-side corruption detections: record CRC, page checksum, or image validation failures"),
		ImagesQuarantined: restart.Counter("images_quarantined", "images",
			"checkpoint images given up on during recovery (stale track, bad envelope checksum, or structural rot)"),
		TornTailCuts: restart.Counter("torn_tail_cuts", "cuts",
			"undecodable bin-tail suffixes cut at restart: a torn final append or tail-truncating rot (indistinguishable)"),

		ArchSegments: archS.Counter("segments_written", "segments",
			"archive segments sealed (full, fsynced, taking no more appends)"),
		ArchRebuilds: archS.Counter("rebuilds", "parts",
			"partitions rebuilt from the archive after a lost or rotted checkpoint image (§2.6)"),
		ArchRebuildFailed: archS.Counter("rebuild_failed", "parts",
			"archive rebuilds that could not serve; recovery degraded to an announced empty image"),
		ArchRebuildTime: archS.Histogram("rebuild_ns", "ns",
			"wall time of one partition-granular archive rebuild"),

		HeatTouches:  heatS.Counter("touches", "touches", "partition accesses recorded by the heat tracker"),
		HeatPersists: heatS.Counter("persists", "persists", "heat-ranking serialisations into the stable snapshot region"),
		HeatDecays:   heatS.Counter("decays", "halvings", "exponential-decay halvings applied to the heat counts"),
		HeatTrackedParts: heatS.Gauge("tracked_partitions", "parts",
			"partitions with a live heat count"),
		HeatSnapshotBytes: heatS.Gauge("snapshot_bytes", "bytes",
			"payload bytes of the last persisted heat snapshot"),
		HeatRecoveredParts: heatS.Gauge("recovered_partitions", "parts",
			"entries in the pre-crash heat ranking recovered at attach"),
		HeatSnapshotRejects: heatS.Counter("snapshot_rejected", "slots",
			"snapshot slots rejected at attach (bad magic, bounds, or CRC); recovery falls back to catalog order"),

		LockWait: lockS.Histogram("wait", "ns",
			"time transactions spend blocked on 2PL lock queues"),
		Deadlocks: lockS.Counter("deadlocks", "events", "waits-for cycles resolved by victim abort"),

		FaultsArmed:     faultS.Counter("armed", "rules", "fault rules armed via injector plans"),
		FaultsTriggered: faultS.Counter("triggered", "firings", "fault rule firings (crashes, I/O errors, corruptions)"),
		FaultTornWrites: faultS.Counter("torn_writes", "writes", "writes torn at a byte boundary by an injected crash"),
		MutationsArmed:  faultS.Counter("mutations_armed", "rules", "armed fault rules with byte-mutation acts (flip/zero/trunc/splice)"),
		MutationsFired:  faultS.Counter("mutations_fired", "firings", "mutation-act firings: payloads silently damaged with valid ECC"),
		DuplexFallbacks: faultS.Counter("duplex_fallbacks", "reads", "log reads served by the mirror after a primary error (§2.2)"),
		DuplexRepairs:   faultS.Counter("duplex_repairs", "pages", "damaged/missing log-disk copies rewritten from the healthy spindle (§2.2)"),

		SimRecoveryInstr: simS.Counter("recovery_instr", "instr", "Table 2 instructions charged to the simulated 1-MIPS recovery CPU (§3.1)"),
		SimStableRefs:    simS.Counter("stable_refs", "refs", "stable-memory byte references, each weighted by Config.StableSlowdown (§1)"),
		SimLogDiskBusy:   simS.Counter("log_disk_busy_us", "us", "simulated busy time of the log disks, both spindles (§3.2, §3.4)"),
		SimCkptDiskBusy:  simS.Counter("ckpt_disk_busy_us", "us", "simulated busy time of the checkpoint disk set (§3.3, §3.4)"),
	}
}

// Registry returns the underlying metrics registry.
func (mt *Metrics) Registry() *metrics.Registry { return mt.reg }

// Metrics returns the manager's instrument bundle (benchmarks, tools).
func (m *Manager) Metrics() *Metrics { return m.metrics }

// MetricsSnapshot captures every instrument of this database instance.
func (m *Manager) MetricsSnapshot() metrics.Snapshot { return m.metrics.reg.Snapshot() }
