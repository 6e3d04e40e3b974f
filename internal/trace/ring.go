package trace

import (
	"encoding/binary"
	"sync"

	"mmdb/internal/stablemem"
)

// flightRootKey names the flight recorder in the stable memory root,
// alongside the Stable Log Buffer's and Stable Log Tail's keys.
const flightRootKey = "mmdb-trace-flight"

// FlightRing is the stable-memory flight recorder: a fixed-size
// circular byte buffer of framed events. The newest events win — when
// the ring is full, the oldest frames are evicted — so after a crash it
// holds the final window of pre-crash activity, the black-box analogue
// of the Stable Log Buffer's "the log survives" guarantee (§2.2).
//
// The ring lives in a stablemem.Region and is registered in the stable
// root, so the crash model preserves it exactly as it preserves the
// stable log structures. Frames wrap around the region end; recovery
// linearises the live bytes and decodes frames until the first
// undecodable one, truncating any torn tail rather than misparsing it.
type FlightRing struct {
	mu   sync.Mutex
	reg  *stablemem.Region
	h    int // offset of the oldest live byte
	used int // live bytes (≤ region size)
}

// NewFlightRing carves a flight ring of the given size out of stable
// memory.
func NewFlightRing(mem *stablemem.Memory, size int) (*FlightRing, error) {
	reg, err := mem.NewRegion(size)
	if err != nil {
		return nil, err
	}
	return &FlightRing{reg: reg}, nil
}

// Size returns the ring capacity in bytes.
func (r *FlightRing) Size() int {
	if r == nil {
		return 0
	}
	return r.reg.Size()
}

// Reset empties the ring for a new tracer generation.
func (r *FlightRing) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.h, r.used = 0, 0
	r.mu.Unlock()
}

// free releases the ring's stable reservation.
func (r *FlightRing) free() {
	if r != nil {
		r.reg.Free()
	}
}

// Append writes one framed event, evicting the oldest frames to make
// room. A frame larger than the whole ring is dropped, never partially
// written.
func (r *FlightRing) Append(frame []byte) {
	if r == nil {
		return
	}
	c := r.reg.Size()
	if len(frame) > c {
		return
	}
	r.mu.Lock()
	for r.used+len(frame) > c {
		r.evictOldestLocked()
	}
	w := (r.h + r.used) % c
	if end := w + len(frame); end <= c {
		r.reg.WriteAt(w, frame)
	} else {
		split := c - w
		r.reg.WriteAt(w, frame[:split])
		r.reg.WriteAt(0, frame[split:])
	}
	r.used += len(frame)
	r.mu.Unlock()
}

// evictOldestLocked drops the frame at the head. If the head bytes do
// not decode as a frame header (possible only after external
// corruption), the whole ring is discarded — safer than guessing at
// frame boundaries.
func (r *FlightRing) evictOldestLocked() {
	var buf [binary.MaxVarintLen64]byte
	hdr := buf[:min(len(buf), r.used)]
	r.readLocked(hdr, r.h)
	plen, hn := binary.Uvarint(hdr)
	if hn <= 0 || plen == 0 || int(plen)+hn > r.used {
		r.h, r.used = 0, 0
		return
	}
	sz := hn + int(plen)
	r.h = (r.h + sz) % r.reg.Size()
	r.used -= sz
}

// readLocked fills p with the ring bytes starting at offset off,
// wrapping.
func (r *FlightRing) readLocked(p []byte, off int) {
	c := r.reg.Size()
	off %= c
	first := min(len(p), c-off)
	r.reg.ReadAt(p[:first], off)
	if first < len(p) {
		r.reg.ReadAt(p[first:], 0)
	}
}

// Events decodes the ring's live contents, oldest first. A torn or
// corrupt tail — a crash can interrupt the multi-byte frame copy — is
// truncated at the last whole frame, never misparsed.
func (r *FlightRing) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.used == 0 {
		return nil
	}
	buf := make([]byte, r.used)
	r.readLocked(buf, r.h)
	var out []Event
	for len(buf) > 0 {
		e, n, err := decodeFrame(buf)
		if err != nil {
			break // torn tail: keep the decodable prefix
		}
		out = append(out, e)
		buf = buf[n:]
	}
	return out
}

// Attach recovers the previous generation's flight ring from stable
// memory and installs the new generation's tracer:
//
//   - events recorded before the crash are decoded and returned as the
//     crash trace, regardless of the new generation's configuration;
//   - if flightBytes > 0 a flight ring of that size is (re)installed in
//     the stable root — the previous ring is reused when the size
//     matches, else freed and reallocated;
//   - if flightBytes <= 0 the previous ring is freed and unregistered,
//     and the tracer is nil (tracing off); the crash trace is still
//     recovered.
func Attach(mem *stablemem.Memory, flightBytes int) (*Tracer, []Event, error) {
	prior, _ := mem.Root(flightRootKey).(*FlightRing)
	var crash []Event
	if prior != nil {
		crash = prior.Events()
	}
	switch {
	case flightBytes > 0 && prior != nil && prior.Size() == flightBytes:
		prior.Reset()
		return New(prior), crash, nil
	case flightBytes > 0:
		prior.free()
		f, err := NewFlightRing(mem, flightBytes)
		if err != nil {
			return nil, crash, err
		}
		mem.SetRoot(flightRootKey, f)
		return New(f), crash, nil
	}
	prior.free()
	if prior != nil {
		mem.SetRoot(flightRootKey, nil)
	}
	return nil, crash, nil
}
