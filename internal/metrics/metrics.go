// Package metrics is the observability substrate of the recovery
// architecture: low-overhead, allocation-free counters, gauges, and
// fixed-bucket latency histograms, grouped into per-subsystem
// registries.
//
// The paper's headline claims are quantitative — log-flush
// amortisation (§2.3.3), checkpoint cost per partition (§2.4), and the
// foreground/background split of post-crash recovery time (§2.5, §3.4)
// — so every hot path of the implementation reports into this package
// and DB.Metrics() exposes the result as a structured Snapshot.
//
// Design constraints:
//
//   - Hot-path operations (Counter.Add, Histogram.Observe) are a single
//     atomic add into a preallocated slot: no locks, no maps, no
//     allocation. Instruments are created once at subsystem start-up
//     and held as struct fields by the instrumented code.
//   - Every method is nil-receiver safe, so uninstrumented components
//     (unit tests constructing a lock.Manager or txn.Manager directly)
//     pay a single branch and need no registry.
//   - Snapshots are plain data with JSON tags; FormatTable renders the
//     human-readable table printed by cmd/paperbench and cmd/mmdbsh.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Reset zeroes the counter. Safe on a nil receiver.
func (c *Counter) Reset() {
	if c != nil {
		c.v.Store(0)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (e.g. resident partitions).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. Safe on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by delta (negative to decrease). Safe on a nil
// receiver.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current gauge value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Reset zeroes the gauge. Safe on a nil receiver.
func (g *Gauge) Reset() { g.Set(0) }

// metricKind discriminates registered instruments for snapshotting.
type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

// metric is one registered instrument plus its metadata.
type metric struct {
	kind metricKind
	name string
	unit string
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Subsystem groups the instruments of one component (e.g. "slb",
// "checkpoint", "lock"). Instruments are created through a Subsystem so
// that every metric is automatically part of the registry snapshot.
type Subsystem struct {
	name string

	mu      sync.Mutex
	metrics []*metric
}

// Name returns the subsystem name.
func (s *Subsystem) Name() string { return s.name }

// Counter creates and registers a counter. unit names what is being
// counted ("records", "pages", "bytes"); help says which paper claim or
// code path the metric observes.
func (s *Subsystem) Counter(name, unit, help string) *Counter {
	c := &Counter{}
	s.register(&metric{kind: kindCounter, name: name, unit: unit, help: help, c: c})
	return c
}

// Gauge creates and registers a gauge.
func (s *Subsystem) Gauge(name, unit, help string) *Gauge {
	g := &Gauge{}
	s.register(&metric{kind: kindGauge, name: name, unit: unit, help: help, g: g})
	return g
}

// Histogram creates and registers a fixed-bucket histogram. unit
// declares the dimension of observed values: "ns" for latencies
// (Observe(int64) takes nanoseconds; ObserveSince is a convenience) or
// "bytes" for sizes.
func (s *Subsystem) Histogram(name, unit, help string) *Histogram {
	h := &Histogram{}
	s.register(&metric{kind: kindHistogram, name: name, unit: unit, help: help, h: h})
	return h
}

func (s *Subsystem) register(m *metric) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = append(s.metrics, m)
}

// Registry is an ordered collection of subsystems; one registry serves
// one DB instance, so concurrent databases never share counters.
type Registry struct {
	mu       sync.Mutex
	subs     []*Subsystem
	samplers []func()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Subsystem returns the named subsystem, creating it on first use.
// Creation order is preserved in snapshots.
func (r *Registry) Subsystem(name string) *Subsystem {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.subs {
		if s.name == name {
			return s
		}
	}
	s := &Subsystem{name: name}
	r.subs = append(r.subs, s)
	return s
}

// OnSnapshot registers a sampler run at the start of every Snapshot
// call, before the instruments are read. Samplers refresh gauges whose
// source is pull-based (Go runtime telemetry) rather than event-driven,
// so scrapes always see current values without a background poller.
// Safe on a nil receiver.
func (r *Registry) OnSnapshot(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.samplers = append(r.samplers, fn)
	r.mu.Unlock()
}

// Snapshot captures every instrument in the registry. The result is
// plain data: safe to marshal, format, or diff. Counters within a
// subsystem keep registration order; subsystems keep creation order.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	subs := append([]*Subsystem(nil), r.subs...)
	samplers := append(make([]func(), 0, len(r.samplers)), r.samplers...)
	r.mu.Unlock()
	for _, fn := range samplers {
		fn()
	}
	out := Snapshot{TakenAt: time.Now()}
	for _, s := range subs {
		s.mu.Lock()
		ms := append([]*metric(nil), s.metrics...)
		s.mu.Unlock()
		ss := SubsystemSnapshot{Name: s.name}
		for _, m := range ms {
			switch m.kind {
			case kindCounter:
				ss.Counters = append(ss.Counters, CounterValue{
					Name: m.name, Unit: m.unit, Help: m.help, Value: m.c.Value(),
				})
			case kindGauge:
				ss.Gauges = append(ss.Gauges, GaugeValue{
					Name: m.name, Unit: m.unit, Help: m.help, Value: m.g.Value(),
				})
			case kindHistogram:
				hv := m.h.snapshot()
				hv.Name, hv.Unit, hv.Help = m.name, m.unit, m.help
				ss.Histograms = append(ss.Histograms, hv)
			}
		}
		out.Subsystems = append(out.Subsystems, ss)
	}
	return out
}

// Reset zeroes every instrument in the registry, aligning the start of
// a measurement window with a benchmark phase or trace capture.
// Observations concurrent with the reset may land on either side of it.
// Safe on a nil receiver.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	subs := append([]*Subsystem(nil), r.subs...)
	r.mu.Unlock()
	for _, s := range subs {
		s.mu.Lock()
		ms := append([]*metric(nil), s.metrics...)
		s.mu.Unlock()
		for _, m := range ms {
			switch m.kind {
			case kindCounter:
				m.c.Reset()
			case kindGauge:
				m.g.Reset()
			case kindHistogram:
				m.h.Reset()
			}
		}
	}
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	TakenAt    time.Time           `json:"taken_at"`
	Subsystems []SubsystemSnapshot `json:"subsystems"`
}

// SubsystemSnapshot holds one subsystem's metric values.
type SubsystemSnapshot struct {
	Name       string           `json:"name"`
	Counters   []CounterValue   `json:"counters,omitempty"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// CounterValue is a snapshotted counter.
type CounterValue struct {
	Name  string `json:"name"`
	Unit  string `json:"unit,omitempty"`
	Help  string `json:"help,omitempty"`
	Value int64  `json:"value"`
}

// GaugeValue is a snapshotted gauge.
type GaugeValue struct {
	Name  string `json:"name"`
	Unit  string `json:"unit,omitempty"`
	Help  string `json:"help,omitempty"`
	Value int64  `json:"value"`
}

// Subsystem returns the named subsystem snapshot, or nil.
func (s Snapshot) Subsystem(name string) *SubsystemSnapshot {
	for i := range s.Subsystems {
		if s.Subsystems[i].Name == name {
			return &s.Subsystems[i]
		}
	}
	return nil
}

// Counter returns the named counter's value within the subsystem (0 if
// absent), so tests and tools can assert on single metrics without
// walking the structure.
func (s *SubsystemSnapshot) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Histogram returns the named histogram snapshot within the subsystem,
// or nil.
func (s *SubsystemSnapshot) Histogram(name string) *HistogramValue {
	if s == nil {
		return nil
	}
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return &s.Histograms[i]
		}
	}
	return nil
}
