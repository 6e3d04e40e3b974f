package heat

import (
	"testing"

	"mmdb/internal/stablemem"
)

// persistTracker is a tracker over n partitions, weighted 1 to 50 so
// that many tie, persisted once so its buffers exist.
func persistTracker(tb testing.TB, n int) *Tracker {
	tb.Helper()
	tr, _, _, err := Attach(stablemem.New(1<<20, 1, nil), 64<<10, 0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for k := 0; k <= i*37%50; k++ {
			tr.Touch(pid(2+uint32(i%7), uint32(i)))
		}
	}
	tr.Persist()
	return tr
}

func BenchmarkTrackerPersist(b *testing.B) {
	tr := persistTracker(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Persist()
	}
}
