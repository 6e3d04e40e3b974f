// Package archive is the append-only archive tier (§2.6), and only the
// storage half of it: log pages rolled off the log disks are kept under
// their partition address and LSN, and read back one partition at a time
// (ScanPartition). Together with the still-resident log pages that is
// every partition's complete REDO history, so losing a checkpoint image,
// or the whole checkpoint disk set, never loses committed data.
// Replaying the history into a partition is recovery, and lives with the
// rest of it in internal/core (restorePartition).
package archive

import (
	"errors"
	"sort"
	"sync"

	"mmdb/internal/addr"
	"mmdb/internal/fault"
	"mmdb/internal/simdisk"
)

// Store is the append-only archive tier (§2.6): the tape that filled log
// disks are rolled onto. Like the log and checkpoint disks it is a
// simulated device in process memory, carried across DB.Crash/Recover
// with the rest of the Hardware. It keeps, per partition, the pages
// archived for it in append order.
type Store struct {
	mu      sync.Mutex
	parts   map[addr.PartitionID][]*page
	inj     *fault.Injector
	entries int // archived pages
}

// page is one archived log page. Like a log-disk sector it carries the
// medium's ECC verdict beside its bytes: bad is set by decay, under
// Store.mu, and every later read skips the page. lsn and data never
// change once the page is stored. The page's content is checked by the
// wal page CRC, not here.
type page struct {
	lsn  simdisk.LSN
	data []byte
	bad  bool
}

// Open creates an empty archive store. The archive lives in memory and
// keeps whole pages, so dir must be empty and segBytes 0; the parameters
// remain for existing callers.
func Open(dir string, segBytes int) (*Store, error) {
	if dir != "" {
		return nil, errors.New("archive: the store is in memory and takes no directory")
	}
	if segBytes != 0 {
		return nil, errors.New("archive: the store keeps whole pages and takes no segment size")
	}
	return &Store{parts: make(map[addr.PartitionID][]*page)}, nil
}

// SetInjector attaches the fault injector; appends hit arch.append and
// scans/rebuild reads hit arch.read.
func (s *Store) SetInjector(inj *fault.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inj = inj
}

// AppendPage archives one rolled log page under its partition identity
// and log-disk LSN. A torn, failed or crashed append stores nothing, and
// the caller retries the whole page.
func (s *Store) AppendPage(pid addr.PartitionID, lsn simdisk.LSN, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	dec := s.inj.Check(fault.PointArchAppend, len(data))
	if dec.Err != nil {
		return dec.Err
	}
	if dec.ApplyBytes(len(data)) < len(data) {
		return fault.ErrInjected
	}
	// MutateBytes copies the page, damaging the copy under a mutation
	// act: rot under valid ECC, which the wal page CRC catches at
	// rebuild time. ActCorrupt stores the page while the medium decays.
	p := &page{lsn: lsn, data: dec.MutateBytes(data), bad: dec.MarkBad}
	s.parts[pid] = append(s.parts[pid], p)
	s.entries++
	return nil
}

// Sync does nothing: an append returns with its bytes on the device.
// It remains for existing callers.
func (s *Store) Sync() error { return nil }

// Entries returns the number of archived pages.
func (s *Store) Entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries
}

// Close does nothing; it remains for existing callers.
func (s *Store) Close() error { return nil }

// ScanPartition calls fn with every archived log page of one partition
// in ascending LSN order. Duplicate LSNs (an append retried across a
// crash is at-least-once) are delivered once, from the first copy that
// reads clean. An LSN whose every copy has decayed is reported with a
// nil page: detected rot, never delivered. page is the stored bytes, or
// a damaged copy of them; fn may keep it but must not write it. The
// store lock is not held across fn.
func (s *Store) ScanPartition(pid addr.PartitionID, fn func(lsn simdisk.LSN, page []byte) error) error {
	s.mu.Lock()
	ps := append([]*page(nil), s.parts[pid]...)
	s.mu.Unlock()
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].lsn < ps[j].lsn })
	for len(ps) > 0 {
		n := 1
		for n < len(ps) && ps[n].lsn == ps[0].lsn {
			n++
		}
		data, err := s.read(ps[:n])
		if err != nil {
			return err
		}
		if err := fn(ps[0].lsn, data); err != nil {
			return err
		}
		ps = ps[n:]
	}
	return nil
}

// read returns the first of one LSN's copies that reads clean, or nil if
// all of them have decayed. Each copy not already bad hits arch.read: an
// error stops the scan, corrupt decays the copy in place so every later
// read skips it too, and a mutation damages only the returned bytes,
// which the wal page decode rejects downstream.
func (s *Store) read(copies []*page) ([]byte, error) {
	for _, p := range copies {
		s.mu.Lock()
		bad, inj := p.bad, s.inj
		s.mu.Unlock()
		if bad {
			continue
		}
		dec := inj.Check(fault.PointArchRead, 0)
		if dec.Err != nil {
			return nil, dec.Err
		}
		if dec.MarkBad {
			s.mu.Lock()
			p.bad = true
			s.mu.Unlock()
			continue
		}
		if dec.Mutated() {
			return dec.MutateBytes(p.data), nil
		}
		return p.data, nil
	}
	return nil, nil
}
