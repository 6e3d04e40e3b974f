package server

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"mmdb/internal/metrics"
)

// TestMetricsDocMatchesRegistry holds docs/METRICS.md to the registries
// of a live server and its database — the server's own (with the Go
// runtime telemetry) and DB.Metrics(): every instrument has a row with
// its kind and unit, and every row names an instrument that exists. A
// row's first cell may list several names, and may use <op> for an
// opcode.
func TestMetricsDocMatchesRegistry(t *testing.T) {
	s, cleanup := startServer(t, testDBConfig(), Config{})
	defer cleanup()
	type instrument struct{ kind, unit string }
	live := map[string]instrument{}
	for _, sub := range metrics.MergeSnapshots(s.Metrics(), s.DB().Metrics()).Subsystems {
		for _, c := range sub.Counters {
			live[sub.Name+"/"+c.Name] = instrument{"counter", c.Unit}
		}
		for _, g := range sub.Gauges {
			live[sub.Name+"/"+g.Name] = instrument{"gauge", g.Unit}
		}
		for _, h := range sub.Histograms {
			live[sub.Name+"/"+h.Name] = instrument{"histogram", h.Unit}
		}
	}

	doc, err := os.ReadFile("../../docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	name := regexp.MustCompile("`([a-z]+/[^`]+)`")
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 5 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		kind, unit := strings.TrimSpace(cells[2]), strings.TrimSpace(cells[3])
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			pat := regexp.QuoteMeta(m[1])
			pat = strings.ReplaceAll(pat, "<op>", ".+")
			re := regexp.MustCompile("^" + pat + "$")
			found := false
			for n, in := range live {
				if !re.MatchString(n) {
					continue
				}
				found, documented[n] = true, true
				if in.kind != kind || in.unit != unit {
					t.Errorf("docs/METRICS.md has %s as %s in %s; the registry has %s in %s", n, kind, unit, in.kind, in.unit)
				}
			}
			if !found {
				t.Errorf("docs/METRICS.md documents %s, which no live registry has", m[1])
			}
		}
	}
	for n := range live {
		if !documented[n] {
			t.Errorf("%s has no row in docs/METRICS.md", n)
		}
	}
}
