package core

import (
	"mmdb/internal/archive"
	"mmdb/internal/simdisk"
	"mmdb/internal/stablemem"
)

// Hardware bundles everything that survives a crash: the stable
// reliable memory (holding the Stable Log Buffer, Stable Log Tail, and
// the well-known root), the duplexed log disks, the checkpoint disk
// set, and the append-only archive store (§2.2, Figure 1).
//
// DB.Crash() discards every volatile structure and returns this value;
// Recover builds a fresh system around it. The devices charge their
// simulated cost to the sim/* counters of whichever Manager New last
// attached to them.
type Hardware struct {
	Stable *stablemem.Memory
	Log    *simdisk.DuplexLog
	Ckpt   *simdisk.CheckpointDisk
	Arch   *archive.Store
}

// NewHardware builds the hardware complement for a fresh database. Like
// the disks, the archive is simulated in process memory: it survives
// simulated power cycles but not process exit.
func NewHardware(cfg Config) (*Hardware, error) {
	arch, err := archive.Open("", cfg.ArchiveSegmentBytes)
	if err != nil {
		return nil, err
	}
	return &Hardware{
		Stable: stablemem.New(cfg.StableBytes, cfg.StableSlowdown, nil),
		Log:    simdisk.NewDuplexLog(cfg.Disk, nil),
		Ckpt:   simdisk.NewCheckpointDisk(cfg.CheckpointTracks, cfg.Disk, nil),
		Arch:   arch,
	}, nil
}
