package mm

import (
	"testing"

	"mmdb/internal/addr"
)

func BenchmarkPartitionInsertDelete(b *testing.B) {
	p := NewPartition(addr.PartitionID{Segment: 2}, 48<<10)
	data := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := p.Insert(data)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Delete(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshot48KB(b *testing.B) {
	p := NewPartition(addr.PartitionID{Segment: 2}, 48<<10)
	for i := 0; i < 400; i++ {
		if _, err := p.Insert(make([]byte, 100)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(48 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Snapshot()
	}
}

// BenchmarkStorePartitionResident resolves resident partitions with a
// heat tracker wired, as every borrowed entity does.
func BenchmarkStorePartitionResident(b *testing.B) {
	st := NewStore(1024)
	st.SetHeat(newTracker(b))
	seg := st.CreateSegment()
	ids := make([]addr.PartitionID, 64)
	for i := range ids {
		p, err := st.AllocPartition(seg)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = p.ID()
	}
	resolve := func(b *testing.B, i int) {
		if _, err := st.Partition(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resolve(b, i)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				resolve(b, i)
			}
		})
	})
}
