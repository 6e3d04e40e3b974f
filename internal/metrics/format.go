package metrics

import (
	"fmt"
	"strings"
)

// FormatValue renders a metric value in its unit, humanising
// nanoseconds and bytes so tables stay readable across nine orders of
// magnitude.
func FormatValue(v float64, unit string) string {
	switch unit {
	case "ns":
		return formatDuration(v)
	case "bytes":
		return formatBytes(v)
	default:
		if v == float64(int64(v)) {
			return fmt.Sprintf("%d", int64(v))
		}
		return fmt.Sprintf("%.2f", v)
	}
}

func formatDuration(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

func formatBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// FormatTable renders the snapshot as the two aligned text tables
// printed by cmd/paperbench metrics and cmd/mmdbsh: latency
// histograms first (the paper's quantitative claims), then the
// counters and gauges. Empty instruments are skipped so quiet
// subsystems do not pad the output.
func FormatTable(s Snapshot) string {
	var b strings.Builder

	type hrow struct {
		sub string
		h   HistogramValue
	}
	var hrows []hrow
	for _, sub := range s.Subsystems {
		for _, h := range sub.Histograms {
			if h.Count > 0 {
				hrows = append(hrows, hrow{sub.Name, h})
			}
		}
	}
	if len(hrows) > 0 {
		fmt.Fprintf(&b, "  %-10s %-26s %10s %10s %10s %10s %10s %10s\n",
			"subsystem", "histogram", "count", "p50", "p95", "p99", "max", "mean")
		for _, r := range hrows {
			fmt.Fprintf(&b, "  %-10s %-26s %10d %10s %10s %10s %10s %10s\n",
				r.sub, r.h.Name, r.h.Count,
				FormatValue(r.h.P50, r.h.Unit),
				FormatValue(r.h.P95, r.h.Unit),
				FormatValue(r.h.P99, r.h.Unit),
				FormatValue(float64(r.h.Max), r.h.Unit),
				FormatValue(r.h.Mean, r.h.Unit))
		}
	}

	type crow struct {
		sub, name, unit string
		value           int64
	}
	var crows []crow
	for _, sub := range s.Subsystems {
		for _, c := range sub.Counters {
			if c.Value != 0 {
				crows = append(crows, crow{sub.Name, c.Name, c.Unit, c.Value})
			}
		}
		for _, g := range sub.Gauges {
			if g.Value != 0 {
				crows = append(crows, crow{sub.Name, g.Name, g.Unit, g.Value})
			}
		}
	}
	if len(crows) > 0 {
		if len(hrows) > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "  %-10s %-26s %14s %s\n", "subsystem", "counter", "value", "unit")
		for _, r := range crows {
			fmt.Fprintf(&b, "  %-10s %-26s %14d %s\n", r.sub, r.name, r.value, r.unit)
		}
	}
	if b.Len() == 0 {
		return "  (no metrics recorded)\n"
	}
	return b.String()
}
