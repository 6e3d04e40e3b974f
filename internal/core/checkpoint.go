package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"mmdb/internal/addr"
	"mmdb/internal/catalog"
	"mmdb/internal/fault"
	"mmdb/internal/lock"
	"mmdb/internal/simdisk"
	"mmdb/internal/trace"
	"mmdb/internal/wal"
)

// diskMap is the checkpoint-disk allocation map: the pseudo-circular
// queue of §2.4. New checkpoint copies never overwrite old copies; they
// are written to the head of the queue, and rarely-checkpointed
// partitions are skipped over as the head passes by. The map is
// volatile — it is rebuilt from the catalogs on restart, which makes
// it trivially crash-consistent with the catalog's view of which
// tracks hold live images.
type diskMap struct {
	mu   sync.Mutex
	used map[simdisk.TrackLoc]bool
	head simdisk.TrackLoc
	n    int
}

func newDiskMap(tracks int) *diskMap {
	return &diskMap{used: make(map[simdisk.TrackLoc]bool), n: tracks}
}

// alloc claims the next free track at the head of the queue.
func (d *diskMap) alloc() (simdisk.TrackLoc, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < d.n; i++ {
		t := d.head
		d.head = (d.head + 1) % simdisk.TrackLoc(d.n)
		if !d.used[t] {
			d.used[t] = true
			return t, nil
		}
	}
	return simdisk.NilTrack, fmt.Errorf("core: checkpoint disks full (%d tracks)", d.n)
}

// free releases a track whose image has been superseded.
func (d *diskMap) free(t simdisk.TrackLoc) {
	if t == simdisk.NilTrack {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.used, t)
}

// markUsed records a live image during restart rebuild.
func (d *diskMap) markUsed(t simdisk.TrackLoc) {
	if t == simdisk.NilTrack {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.used[t] = true
}

// sealImage appends the CRC32 trailer of img to it, for the trip to
// (and especially back from) the checkpoint disk. Sector ECC and the
// write-verify cover the write path; the trailer is what lets the
// restart path detect rot that happened while the image sat on disk —
// content damage AdoptImage's structural checks cannot see. Given
// capacity for the trailer, it seals img in place.
func sealImage(img []byte) []byte {
	return binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(img))
}

// errImageChecksum reports a checkpoint image whose envelope CRC no
// longer matches: the image rotted on (or on the way back from) the
// checkpoint disk.
var errImageChecksum = errors.New("core: checkpoint image envelope checksum mismatch")

// openImage verifies an envelope written by sealImage and read back
// split at its trailer: img is the image, checked in place, and crc the
// trailer, which must be exactly 4 bytes.
func openImage(img, crc []byte) error {
	if len(crc) != 4 {
		return fmt.Errorf("%w: %d-byte envelope", errImageChecksum, len(img)+len(crc))
	}
	if crc32.ChecksumIEEE(img) != binary.LittleEndian.Uint32(crc) {
		return errImageChecksum
	}
	return nil
}

// checkpointer is the main-CPU loop: between transactions it serves the
// checkpoint requests the recovery CPU raised in the Stable Log Tail,
// oldest first, running a checkpoint transaction for each (§2.4). It
// sleeps only on its nudge channel, which every raise fills.
func (m *Manager) checkpointer() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case <-m.slt.ckptCh:
		}
		for {
			pid, trig, ok := m.slt.nextCkpt()
			if !ok {
				break
			}
			err := m.runCheckpoint(pid, trig)
			if err != nil {
				m.metrics.CkptFailed.Add(1)
				m.tracer.Emit(pidEvent(trace.Event{Kind: trace.KindCkptFail}, pid))
				if m.halted() {
					// The machine stopped mid-checkpoint: the request and
					// its fence stay as the crash left them, and the next
					// incarnation re-queues the one and drops the other.
					return
				}
				if m.slt.failCkpt(pid) {
					// Persistent failure (e.g. checkpoint disks full): the
					// request is dropped rather than wedging the queue; the
					// update-count/age trigger re-requests once the
					// partition accumulates more log records.
					m.metrics.CkptAbandoned.Add(1)
				}
			}
			m.signalIdle()
			if err != nil {
				// Back off to avoid a hot failure loop.
				select {
				case <-m.stop:
					return
				case <-time.After(2 * time.Millisecond):
				}
			}
		}
	}
}

// runCheckpoint executes one checkpoint transaction (§2.4 steps 2–7):
//
//  1. read lock the partition's relation — a single relation read lock
//     suffices for a transaction-consistent partition;
//  2. drain barrier + fence on the recovery CPU;
//  3. copy the partition at memory speed and release the read lock;
//  4. allocate a free checkpoint disk location (never overwriting the
//     old image) and log the catalog update;
//  5. write the partition image to the checkpoint disk and commit;
//     the new location is installed atomically at commit;
//  6. signal finished: the recovery CPU flushes/drops the partition's
//     superseded log information.
func (m *Manager) runCheckpoint(pid addr.PartitionID, trig ckptTrigger) error {
	relID, ok := m.cb.OwnerRel(pid)
	if !ok {
		// Partition freed while the request was queued.
		m.dropBin(pid)
		return nil
	}
	start := time.Now()
	t := m.Txns.Begin()
	m.tracer.Emit(pidEvent(trace.Event{
		Kind: trace.KindCkptBegin, Txn: t.ID(), Arg2: uint64(trig),
	}, pid))
	// An attempt that does not commit installs nothing, so the track it
	// claimed (if it got that far) goes back to the allocation map.
	committed := false
	track := simdisk.NilTrack
	defer func() {
		if !committed {
			_ = t.Abort()
			m.dmap.free(track)
		}
	}()

	if err := t.LockRelation(relID, lock.S); err != nil {
		return err
	}
	if err := m.askRecoveryCPU(m.drainCh, pid); err != nil {
		return err
	}
	if m.Hooks.AfterFence != nil {
		if err := m.Hooks.AfterFence(pid); err != nil {
			return err
		}
	}
	if err := m.faultPoint(fault.PointCkptAfterFence); err != nil {
		return err
	}
	p, err := m.store.Partition(pid)
	if err != nil {
		return err
	}
	// The copy leaves room for the envelope trailer, sealed in place
	// below once the latch is released.
	p.Latch()
	img := p.AppendImage(make([]byte, 0, p.Size()+4))
	p.Unlatch()
	// Relation locks are held just long enough to copy the partition
	// at memory speed (§2.4 step 4): release the read lock early by
	// downgrading through ReleaseAll at commit — strict 2PL would keep
	// it, but the paper explicitly releases after the copy. We keep
	// the lock until commit instead: the checkpoint transaction's
	// remaining work takes no other entity locks, so holding the read
	// lock cannot deadlock, and it keeps the implementation strictly
	// two-phase. (The interference window is the memory copy either
	// way; the disk write below blocks no one.)

	track, err = m.dmap.alloc()
	if err != nil {
		return err
	}
	oldTrack, err := m.cb.InstallCkpt(t, pid, track)
	if err != nil {
		return err
	}
	// The image travels in a checksummed envelope: AdoptImage validates
	// structure but cannot see content rot (a flipped byte inside row
	// data parses fine), so the restart path needs an end-to-end CRC to
	// decide "this image rotted, rebuild from the archive" with no
	// silent-wrong-data window.
	blob := sealImage(img)
	if err := m.hw.Ckpt.WriteTrack(track, blob); err != nil {
		return err
	}
	// Write-verify: a mutation fault can rot the image bytes while
	// WriteTrack reports success and the track keeps valid sector ECC.
	// TrackEqual compares the stored bytes without touching the
	// ckpt.read fault point; a mismatch fails this attempt into the
	// normal retry path while the superseded image is still live (§2.4
	// never overwrites the old copy, so the failure costs nothing).
	if equal, bad, ok := m.hw.Ckpt.TrackEqual(track, blob); !ok || bad || !equal {
		m.metrics.CkptVerifyFailed.Inc()
		return fmt.Errorf("core: checkpoint write-verify of %v failed on track %d", pid, track)
	}
	m.tracer.Emit(pidEvent(trace.Event{
		Kind: trace.KindCkptTrack, Txn: t.ID(), Arg: uint64(track),
	}, pid))
	if m.Hooks.AfterImageWrite != nil {
		if err := m.Hooks.AfterImageWrite(pid); err != nil {
			return err
		}
	}
	if err := m.faultPoint(fault.PointCkptAfterImage); err != nil {
		return err
	}
	// Catalog partitions' locations must always be findable: refresh
	// the root copies and write the root to the log disk (§2.5).
	if pid.Segment == addr.SegRelationCatalog || pid.Segment == addr.SegIndexCatalog {
		root := m.slt.updateRoot(func(r *catalog.Root) {
			setRootTrack(r, pid, track)
		})
		if err := m.writeRootToLog(root); err != nil {
			return err
		}
	}
	if m.Hooks.BeforeCommit != nil {
		if err := m.Hooks.BeforeCommit(pid); err != nil {
			return err
		}
	}
	if err := m.faultPoint(fault.PointCkptBeforeCommit); err != nil {
		return err
	}
	if err := t.Commit(); err != nil {
		return err
	}
	committed = true
	m.metrics.CkptDuration.ObserveSince(start)
	m.metrics.CkptImageBytes.Observe(int64(len(img)))
	m.tracer.Emit(pidEvent(trace.Event{
		Kind: trace.KindCkptEnd, Txn: t.ID(), Arg: uint64(len(img)),
	}, pid))
	m.FreeImage(oldTrack)
	return m.askRecoveryCPU(m.finishCh, pid)
}

// FreeImage releases a checkpoint image nothing will read again, one a
// newer checkpoint superseded or one of a dropped partition: its track
// leaves the allocation map and the disk.
func (m *Manager) FreeImage(track simdisk.TrackLoc) {
	if track == simdisk.NilTrack {
		return
	}
	m.dmap.free(track)
	m.hw.Ckpt.FreeTrack(track)
}

// setRootTrack records a catalog partition's new checkpoint location in
// the root (§2.5: catalog checkpoint locations are duplicated in stable
// memory because they must be findable before the catalogs exist).
func setRootTrack(r *catalog.Root, pid addr.PartitionID, track simdisk.TrackLoc) {
	var list *[]catalog.PartState
	switch pid.Segment {
	case addr.SegRelationCatalog:
		list = &r.RelCatParts
	case addr.SegIndexCatalog:
		list = &r.IdxCatParts
	default:
		return
	}
	for i := range *list {
		if (*list)[i].Part == pid.Part {
			(*list)[i].Track = track
			return
		}
	}
	*list = append(*list, catalog.PartState{Part: pid.Part, Track: track})
}

// writeRootToLog writes the catalog root to the log disk under the
// sentinel partition address, fulfilling §2.5's "periodically written
// to the log disk".
func (m *Manager) writeRootToLog(root *catalog.Root) error {
	pg := &wal.Page{PID: rootPID, Records: root.Encode()}
	_, err := m.hw.Log.Append(pg.Encode())
	return err
}
