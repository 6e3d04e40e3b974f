package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4). Metric families are named
// <namespace>_<subsystem>_<name> with a unit suffix following the
// Prometheus conventions: counters gain _total, nanosecond instruments
// are converted to base seconds (_seconds), byte instruments gain
// _bytes. Histograms emit the full family — cumulative _bucket{le=...}
// series ending in +Inf, _sum, and _count — plus a companion
// <family>_quantiles summary carrying the snapshot's interpolated
// p50/p95/p99, so scrapes see both the raw distribution and the
// precomputed tail.
func WritePrometheus(w io.Writer, s Snapshot, namespace string) error {
	ew := &errWriter{w: w}
	for _, sub := range s.Subsystems {
		for _, c := range sub.Counters {
			name := familyName(namespace, sub.Name, c.Name, c.Unit) + "_total"
			writeHeader(ew, name, "counter", helpText(c.Help, c.Unit))
			fmt.Fprintf(ew, "%s %s\n", name, formatSample(float64(c.Value), c.Unit))
		}
		for _, g := range sub.Gauges {
			name := familyName(namespace, sub.Name, g.Name, g.Unit)
			writeHeader(ew, name, "gauge", helpText(g.Help, g.Unit))
			fmt.Fprintf(ew, "%s %s\n", name, formatSample(float64(g.Value), g.Unit))
		}
		for i := range sub.Histograms {
			writeHistogram(ew, namespace, sub.Name, &sub.Histograms[i])
		}
	}
	return ew.err
}

func writeHistogram(w io.Writer, namespace, sub string, h *HistogramValue) {
	name := familyName(namespace, sub, h.Name, h.Unit)
	writeHeader(w, name, "histogram", helpText(h.Help, h.Unit))
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatLE(b.Hi, h.Unit), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatSample(float64(h.Sum), h.Unit))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	if h.Count == 0 {
		return
	}
	qname := name + "_quantiles"
	writeHeader(w, qname, "summary", "interpolated quantiles of "+familyName("", sub, h.Name, h.Unit))
	for _, q := range []struct {
		q string
		v float64
	}{{"0.5", h.P50}, {"0.95", h.P95}, {"0.99", h.P99}} {
		fmt.Fprintf(w, "%s{quantile=%q} %s\n", qname, q.q, formatSample(q.v, h.Unit))
	}
	fmt.Fprintf(w, "%s_sum %s\n", qname, formatSample(float64(h.Sum), h.Unit))
	fmt.Fprintf(w, "%s_count %d\n", qname, h.Count)
}

func writeHeader(w io.Writer, name, typ, help string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, EscapeHelp(help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// familyName builds the sanitized metric family name, appending a base
// unit suffix per the Prometheus naming conventions.
func familyName(namespace, sub, name, unit string) string {
	parts := make([]string, 0, 3)
	for _, p := range []string{namespace, sub, name} {
		if p != "" {
			parts = append(parts, SanitizeName(p))
		}
	}
	n := strings.Join(parts, "_")
	switch unit {
	case "ns":
		n += "_seconds"
	case "bytes":
		if !strings.HasSuffix(n, "_bytes") {
			n += "_bytes"
		}
	}
	return n
}

// helpText appends the declared unit to the help string when it is not
// one of the converted base units.
func helpText(help, unit string) string {
	switch unit {
	case "", "ns", "bytes":
		return help
	}
	if help == "" {
		return "unit: " + unit
	}
	return help + " (unit: " + unit + ")"
}

// formatSample renders a sample value, converting nanoseconds to base
// seconds.
func formatSample(v float64, unit string) string {
	if unit == "ns" {
		return formatFloat(v / 1e9)
	}
	return formatFloat(v)
}

// formatLE renders a bucket's upper bound as a label value.
func formatLE(hi int64, unit string) string {
	if hi == math.MaxInt64 {
		return "+Inf"
	}
	return formatSample(float64(hi), unit)
}

// formatFloat formats a float the way Prometheus expects: integral
// values without an exponent or trailing zeros, everything else in
// shortest round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// SanitizeName maps an arbitrary instrument name onto the Prometheus
// metric-name alphabet [a-zA-Z0-9_:], replacing every other rune with
// an underscore and prefixing a leading digit.
func SanitizeName(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// EscapeHelp escapes a HELP line per the exposition format: backslash
// and newline.
func EscapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// MergeSnapshots concatenates several registries' snapshots into one,
// prefixing colliding subsystem names is the caller's job (the server
// and DB registries use disjoint subsystem names by construction).
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	var out Snapshot
	for _, s := range snaps {
		if out.TakenAt.IsZero() || s.TakenAt.After(out.TakenAt) {
			out.TakenAt = s.TakenAt
		}
		out.Subsystems = append(out.Subsystems, s.Subsystems...)
	}
	return out
}

// errWriter latches the first write error so the format helpers can
// stay fmt.Fprintf-shaped.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}
