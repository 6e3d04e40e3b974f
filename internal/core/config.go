// Package core implements the paper's recovery component: the Stable
// Log Buffer — one committed list in commit order (see slb.go) — and
// the Stable Log Tail in stable reliable memory, the recovery-CPU loop
// that sorts committed log records from that list into partition bins
// and flushes bin pages to the duplexed log disks, update-count and
// age (log-window) checkpoint triggering, the main-CPU checkpoint
// transactions against the pseudo-circular checkpoint disk queue, and
// two-phase post-crash recovery: catalogs first, then partitions on
// demand with a low-priority background sweep (§2). docs/LOGGING.md
// walks the commit path end to end; docs/ARCHITECTURE.md maps the
// whole component.
package core

import (
	"runtime"
	"time"

	"mmdb/internal/fault"
	"mmdb/internal/model"
	"mmdb/internal/simdisk"
)

// Config carries every tunable of the recovery architecture. The
// defaults reproduce Table 2.
type Config struct {
	// PartitionSize is S_partition: the fixed partition size in bytes.
	PartitionSize int
	// LogPageSize is S_log_page: the partition-bin log page size.
	LogPageSize int
	// SLBBlockSize is the fixed block size of the Stable Log Buffer;
	// blocks are allocated to transactions on demand and dedicated to
	// one transaction for their lifetime (§2.3.1).
	SLBBlockSize int
	// GroupCommitInterval must be 0; New rejects any other value.
	// Commit has no group: a transaction commits when its chain joins
	// the SLB's committed list, one store into stable memory with no
	// flush to amortise. The field remains only because the benchmark
	// harness sets it.
	GroupCommitInterval time.Duration
	// UpdateThreshold is N_update: log records a partition may
	// accumulate before a checkpoint is triggered by update count.
	UpdateThreshold int
	// LogWindowPages is the size of the log window: the fixed amount
	// of log disk space that moves forward as pages are written.
	LogWindowPages int
	// GracePages triggers age checkpoints this many pages before a
	// partition's first log page would fall off the window (§2.3.3's
	// grace period).
	GracePages int
	// CheckpointTracks is the checkpoint disk capacity in tracks.
	CheckpointTracks int
	// ArchiveSegmentBytes must be 0; NewHardware rejects any other
	// value. The archive keeps whole pages, not size-rotated segments.
	// The field remains only because the benchmark harness reads it.
	ArchiveSegmentBytes int
	// StableBytes / StableSlowdown configure the stable reliable
	// memory (§1: two to four times slower than regular memory).
	StableBytes    int64
	StableSlowdown int
	// Disk is the drive timing model.
	Disk simdisk.Params
	// Cost carries the Table 2 instruction costs charged by the
	// recovery CPU's code paths.
	Cost model.Params
	// RecoveryWorkers is the number of goroutines of the low-priority
	// background sweep that Resume starts to restore not-yet-demanded
	// partitions after a crash (§2.5); 0 means no sweep, and New rejects
	// a negative value. The fan-out makes restart wall-clock scale with
	// cores instead of database size (§3.4's independence claim,
	// measured by `paperbench restart`). Workers coalesce with
	// concurrent on-demand recovery through the store's resolve path, so
	// a partition is never recovered twice.
	RecoveryWorkers int
	// FaultInjector, when non-nil, is threaded through the storage
	// stack (log disks, checkpoint disk, stable memory, checkpoint
	// transaction steps) so tests and the crashhunt sweep can crash,
	// tear, or corrupt I/O at named fault points. Nil costs one branch
	// per instrumented operation.
	FaultInjector *fault.Injector
	// FlightRecorderBytes sizes the stable-memory flight recorder, the
	// tracer's one sink: a crash-surviving ring of encoded trace events,
	// read live as the trace and recovered on restart as the crash
	// trace. The bytes count against StableBytes. 0 turns tracing off:
	// the tracer is nil and every instrumented path pays a single branch.
	FlightRecorderBytes int
	// HeatSnapshotBytes sizes the crash-surviving partition-heat
	// snapshot: per-partition access counts tracked on the store's
	// resolve path and persisted into a stable region (two CRC-guarded
	// generation slots), so the pre-crash heat ranking is readable
	// during restart and the background sweep can recover hot
	// partitions first. 0 disables heat tracking; the bytes count
	// against StableBytes.
	HeatSnapshotBytes int
	// HeatPersistEvery is the touch cadence of heat persistence: every
	// N-th partition access serialises the ranking into the stable
	// region. 0 means heat.DefaultPersistEvery (4096).
	HeatPersistEvery int
}

// DefaultConfig returns the paper's environment: 48 KB partitions, 8 KB
// log pages, N_update = 1000, a few megabytes of stable memory at 4x
// slowdown, the Table 2 instruction costs, and a background sweep
// GOMAXPROCS workers wide.
func DefaultConfig() Config {
	return Config{
		PartitionSize:    48 << 10,
		LogPageSize:      8 << 10,
		SLBBlockSize:     2 << 10,
		UpdateThreshold:  1000,
		LogWindowPages:   4096,
		GracePages:       16,
		CheckpointTracks: 4096,
		StableBytes:      8 << 20,
		StableSlowdown:   4,
		Disk:             simdisk.DefaultParams(),
		Cost:             model.PaperParams(),
		RecoveryWorkers:  runtime.GOMAXPROCS(0),
	}
}
