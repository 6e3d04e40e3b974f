package mmdb

import (
	"fmt"
	"math/rand"
	"testing"

	"mmdb/internal/heap"
)

// TestSoakSustainedWorkloadWithCrashes drives a sustained mixed
// workload sized to exercise the full machinery end to end — page
// flushes, update-count and age checkpoints, log-window movement,
// archive rolling to tape, change accumulation — with a crash and full
// verification between phases. Skipped with -short.
func TestSoakSustainedWorkloadWithCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cfg := DefaultConfig()
	cfg.PartitionSize = 8 << 10
	cfg.LogPageSize = 1 << 10
	cfg.SLBBlockSize = 1 << 10
	cfg.UpdateThreshold = 80
	cfg.LogWindowPages = 96
	cfg.GracePages = 8
	cfg.CheckpointTracks = 2048
	cfg.StableBytes = 64 << 20
	cfg.BackgroundRecovery = true

	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schema := heap.Schema{
		{Name: "k", Type: heap.Int64},
		{Name: "v", Type: heap.Float64},
		{Name: "pad", Type: heap.String},
	}
	rels := make([]*Relation, 3)
	for i := range rels {
		rels[i], err = db.CreateRelation(fmt.Sprintf("soak%d", i), schema)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateIndex(rels[i], "by_k", "k", KindTTree, 8); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(2026))
	model := make([]map[RowID]int64, 3)
	for i := range model {
		model[i] = map[RowID]int64{}
	}
	rows := make([][]RowID, 3)
	nextKey := int64(0)

	const phases, txnsPerPhase = 4, 400
	for phase := 0; phase < phases; phase++ {
		for i := 0; i < txnsPerPhase; i++ {
			ri := rng.Intn(3)
			rel := rels[ri]
			tx := db.Begin()
			abort := rng.Intn(10) == 0
			type chg struct {
				id  RowID
				k   int64
				del bool
				ins bool
			}
			var chgs []chg
			for op := 0; op < 1+rng.Intn(4); op++ {
				switch c := rng.Intn(10); {
				case c < 5 || len(rows[ri]) == 0:
					k := nextKey
					nextKey++
					id, err := tx.Insert(rel, heap.Tuple{k, float64(k), "padding-data-padding"})
					if err != nil {
						t.Fatal(err)
					}
					chgs = append(chgs, chg{id: id, k: k, ins: true})
				case c < 8:
					id := rows[ri][rng.Intn(len(rows[ri]))]
					if _, ok := model[ri][id]; !ok {
						continue
					}
					already := false
					for _, ch := range chgs {
						if ch.id == id {
							already = true
						}
					}
					if already {
						continue
					}
					k := nextKey
					nextKey++
					if err := tx.Update(rel, id, map[string]any{"k": k}); err != nil {
						t.Fatal(err)
					}
					chgs = append(chgs, chg{id: id, k: k})
				default:
					id := rows[ri][rng.Intn(len(rows[ri]))]
					if _, ok := model[ri][id]; !ok {
						continue
					}
					already := false
					for _, ch := range chgs {
						if ch.id == id {
							already = true
						}
					}
					if already {
						continue
					}
					if err := tx.Delete(rel, id); err != nil {
						t.Fatal(err)
					}
					chgs = append(chgs, chg{id: id, del: true})
				}
			}
			if abort {
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			for _, ch := range chgs {
				switch {
				case ch.del:
					delete(model[ri], ch.id)
				case ch.ins:
					model[ri][ch.id] = ch.k
					rows[ri] = append(rows[ri], ch.id)
				default:
					model[ri][ch.id] = ch.k
				}
			}
		}

		db.WaitIdle()
		st := db.Metrics()
		db = crashAndRecover(t, db, cfg)
		for i := range rels {
			rels[i], err = db.GetRelation(fmt.Sprintf("soak%d", i))
			if err != nil {
				t.Fatal(err)
			}
		}
		// Verify everything, starting with the full integrity audit.
		if err := db.CheckConsistency(); err != nil {
			t.Fatalf("phase %d: %v", phase, err)
		}
		for ri, rel := range rels {
			tx := db.Begin()
			got := map[RowID]int64{}
			if err := tx.Scan(rel, func(id RowID, tup heap.Tuple) bool {
				got[id] = tup[0].(int64)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			_ = tx.Abort()
			if len(got) != len(model[ri]) {
				t.Fatalf("phase %d rel %d: %d rows, model %d", phase, ri, len(got), len(model[ri]))
			}
			for id, k := range model[ri] {
				if got[id] != k {
					t.Fatalf("phase %d rel %d row %v: k=%d, want %d", phase, ri, id, got[id], k)
				}
			}
		}
		if phase == phases-1 {
			// Sanity on machinery engagement across the run.
			if st.Subsystem("checkpoint").Counter("completed") == 0 {
				t.Error("soak never completed a checkpoint")
			}
			if st.Subsystem("log").Counter("pages_flushed") == 0 {
				t.Error("soak never flushed a log page")
			}
		}
	}
	_ = db.Close()
}
