package main

import (
	"mmdb"
	"mmdb/internal/metrics"
)

// ledger sums the metrics registries of every DB instance of a run. Each
// instance has its own registry, which dies with it, so the harness takes one
// snapshot per instance at the end of its life (after WaitIdle, before the
// crash) and adds it here. Keys are "subsystem/name".
type ledger struct {
	counters map[string]int64
	hists    map[string]*histSum
}

// histSum is a histogram merged across instances, bucket by bucket.
type histSum struct {
	count, sum int64
	buckets    map[int64]*metrics.HistogramBucket // by lower bound
}

func newLedger() *ledger {
	return &ledger{counters: map[string]int64{}, hists: map[string]*histSum{}}
}

func (l *ledger) add(s mmdb.MetricsSnapshot) {
	for _, sub := range s.Subsystems {
		for _, c := range sub.Counters {
			l.counters[sub.Name+"/"+c.Name] += c.Value
		}
		for _, h := range sub.Histograms {
			key := sub.Name + "/" + h.Name
			hs := l.hists[key]
			if hs == nil {
				hs = &histSum{buckets: map[int64]*metrics.HistogramBucket{}}
				l.hists[key] = hs
			}
			hs.count += h.Count
			hs.sum += h.Sum
			for _, b := range h.Buckets {
				if have := hs.buckets[b.Lo]; have != nil {
					have.Count += b.Count
				} else {
					b := b
					hs.buckets[b.Lo] = &b
				}
			}
		}
	}
}

func (l *ledger) counter(key string) float64 { return float64(l.counters[key]) }

func (l *ledger) count(key string) float64 {
	if h := l.hists[key]; h != nil {
		return float64(h.count)
	}
	return 0
}

func (l *ledger) sum(key string) float64 {
	if h := l.hists[key]; h != nil {
		return float64(h.sum)
	}
	return 0
}

func (l *ledger) mean(key string) float64 {
	if h := l.hists[key]; h != nil && h.count > 0 {
		return float64(h.sum) / float64(h.count)
	}
	return 0
}

// quantile interpolates linearly inside the power-of-two bucket that holds
// the q-th observation; 0 when nothing was observed.
func (l *ledger) quantile(key string, q float64) float64 {
	h := l.hists[key]
	if h == nil || h.count == 0 {
		return 0
	}
	los := make([]float64, 0, len(h.buckets))
	for lo := range h.buckets {
		los = append(los, float64(lo))
	}
	los = sorted(los)
	rank := q * float64(h.count)
	seen := 0.0
	for _, lo := range los {
		b := h.buckets[int64(lo)]
		if seen+float64(b.Count) >= rank {
			frac := (rank - seen) / float64(b.Count)
			return float64(b.Lo) + frac*float64(b.Hi-b.Lo)
		}
		seen += float64(b.Count)
	}
	return float64(h.buckets[int64(los[len(los)-1])].Hi)
}

// counterOf and gaugeOf read one instance's snapshot.
func counterOf(s mmdb.MetricsSnapshot, sub, name string) int64 {
	return s.Subsystem(sub).Counter(name)
}

func gaugeOf(s mmdb.MetricsSnapshot, sub, name string) int64 {
	ss := s.Subsystem(sub)
	if ss == nil {
		return 0
	}
	for _, g := range ss.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}
