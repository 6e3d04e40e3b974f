package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mmdb/internal/addr"
	"mmdb/internal/mm"
	"mmdb/internal/wal"
)

func accRec(tag wal.Tag, slot addr.Slot, off uint16, data string) logRec {
	return logRec{Record: wal.Record{Tag: tag, Txn: 1, PID: addr.PartitionID{Segment: 2, Part: 0}, Slot: slot, Off: off, Data: []byte(data)}}
}

func TestAccumulateRules(t *testing.T) {
	cases := []struct {
		name    string
		in      []logRec
		wantLen int
		dropped int
	}{
		{
			name: "update-supersedes-update",
			in: []logRec{
				accRec(wal.TagRelUpdate, 1, 0, "v1"),
				accRec(wal.TagRelUpdate, 1, 0, "v2"),
			},
			wantLen: 1, dropped: 1,
		},
		{
			name: "insert-plus-delete-cancels",
			in: []logRec{
				accRec(wal.TagRelInsert, 1, 0, "x"),
				accRec(wal.TagRelDelete, 1, 0, ""),
			},
			wantLen: 0, dropped: 2,
		},
		{
			name: "insertness-preserved",
			in: []logRec{
				accRec(wal.TagRelInsert, 1, 0, "v1"),
				accRec(wal.TagRelUpdate, 1, 0, "v2"),
			},
			wantLen: 1, dropped: 1,
		},
		{
			name: "write-folds-into-image",
			in: []logRec{
				accRec(wal.TagRelInsert, 1, 0, "abcdef"),
				accRec(wal.TagRelWrite, 1, 2, "XY"),
			},
			wantLen: 1, dropped: 1,
		},
		{
			name: "distinct-slots-untouched",
			in: []logRec{
				accRec(wal.TagRelInsert, 1, 0, "a"),
				accRec(wal.TagRelInsert, 2, 0, "b"),
			},
			wantLen: 2, dropped: 0,
		},
		{
			name: "write-after-write-kept",
			in: []logRec{
				accRec(wal.TagRelWrite, 1, 0, "A"),
				accRec(wal.TagRelWrite, 1, 4, "B"),
			},
			wantLen: 2, dropped: 0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, dropped := accumulate(c.in)
			if len(out) != c.wantLen || dropped != c.dropped {
				t.Fatalf("got %d records, %d dropped; want %d, %d", len(out), dropped, c.wantLen, c.dropped)
			}
		})
	}
	// Detail checks.
	out, _ := accumulate([]logRec{
		accRec(wal.TagRelInsert, 1, 0, "v1"),
		accRec(wal.TagRelUpdate, 1, 0, "v2"),
	})
	if out[0].Tag != wal.TagRelInsert || string(out[0].Data) != "v2" {
		t.Fatalf("insert-ness: %v %q", out[0].Tag, out[0].Data)
	}
	out, _ = accumulate([]logRec{
		accRec(wal.TagRelInsert, 1, 0, "abcdef"),
		accRec(wal.TagRelWrite, 1, 2, "XY"),
	})
	if string(out[0].Data) != "abXYef" {
		t.Fatalf("fold: %q", out[0].Data)
	}
}

// TestAccumulateReplayEquivalence is the soundness property: for random
// operation sequences, replaying the accumulated records yields the
// same partition state as replaying the originals.
func TestAccumulateReplayEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pid := addr.PartitionID{Segment: 2, Part: 0}
	for trial := 0; trial < 300; trial++ {
		// Build a random valid op sequence against a scratch
		// partition (validity: ops target slots in sensible states).
		scratch := mm.NewPartition(pid, 8192)
		var recs []logRec
		liveData := map[addr.Slot][]byte{}
		for op := 0; op < 20; op++ {
			switch c := rng.Intn(10); {
			case c < 4 || len(liveData) == 0: // insert
				data := make([]byte, 4+rng.Intn(12))
				rng.Read(data)
				s, err := scratch.Insert(data)
				if err != nil {
					continue
				}
				recs = append(recs, logRec{Record: wal.Record{Tag: wal.TagRelInsert, PID: pid, Slot: s, Data: append([]byte(nil), data...)}})
				liveData[s] = append([]byte(nil), data...)
			case c < 6: // update
				for s := range liveData {
					data := make([]byte, 4+rng.Intn(12))
					rng.Read(data)
					if err := scratch.Update(s, data); err != nil {
						break
					}
					recs = append(recs, logRec{Record: wal.Record{Tag: wal.TagRelUpdate, PID: pid, Slot: s, Data: append([]byte(nil), data...)}})
					liveData[s] = append([]byte(nil), data...)
					break
				}
			case c < 8: // write-at
				for s, cur := range liveData {
					if len(cur) == 0 {
						break
					}
					off := rng.Intn(len(cur))
					n := 1 + rng.Intn(len(cur)-off)
					data := make([]byte, n)
					rng.Read(data)
					if err := scratch.WriteAt(s, off, data); err != nil {
						break
					}
					recs = append(recs, logRec{Record: wal.Record{Tag: wal.TagRelWrite, PID: pid, Slot: s, Off: uint16(off), Data: data}})
					copy(liveData[s][off:], data)
					break
				}
			default: // delete
				for s := range liveData {
					if err := scratch.Delete(s); err != nil {
						break
					}
					recs = append(recs, logRec{Record: wal.Record{Tag: wal.TagRelDelete, PID: pid, Slot: s}})
					delete(liveData, s)
					break
				}
			}
		}
		// Replay originals and accumulated onto fresh partitions.
		plain := mm.NewPartition(pid, 8192)
		for i := range recs {
			if err := ApplyRecord(plain, &recs[i].Record); err != nil {
				t.Fatalf("trial %d: plain replay: %v", trial, err)
			}
		}
		acc, _ := accumulate(recs)
		compact := mm.NewPartition(pid, 8192)
		for _, r := range acc {
			if err := ApplyRecord(compact, &r.Record); err != nil {
				t.Fatalf("trial %d: accumulated replay: %v", trial, err)
			}
		}
		// Slot-level equality.
		for s := addr.Slot(0); s < 64; s++ {
			a, errA := plain.Read(s)
			b, errB := compact.Read(s)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("trial %d slot %d: presence %v vs %v", trial, s, errA, errB)
			}
			if errA == nil && !bytes.Equal(a, b) {
				t.Fatalf("trial %d slot %d: %q vs %q", trial, s, a, b)
			}
		}
	}
}

// TestChangeAccumulationEndToEnd turns the option on and verifies both
// the log reduction and recovery correctness.
func TestChangeAccumulationEndToEnd(t *testing.T) {
	cfg := testCfg()
	cfg.ChangeAccumulation = true
	h := newHarness(t, cfg)
	h.start()
	seg := h.seg()
	// One transaction updating the same entity many times.
	tt := h.m.Txns.Begin()
	a, err := tt.InsertEntity(seg, false, []byte("v000"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 50; i++ {
		if err := tt.UpdateEntity(a, false, []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tt.Commit(); err != nil {
		t.Fatal(err)
	}
	h.m.WaitIdle()
	st := h.m.Metrics()
	if st.RecordsAccumulated.Value() < 45 {
		t.Fatalf("accumulated only %d records", st.RecordsAccumulated.Value())
	}
	if st.RecordsSorted.Value() > 10 {
		t.Fatalf("sorted %d records despite accumulation", st.RecordsSorted.Value())
	}
	h.crash()
	defer h.m.Stop()
	p, err := h.store.Partition(a.Partition())
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(a.Slot)
	if err != nil || !bytes.Equal(got, []byte("v049")) {
		t.Fatalf("recovered %q, %v", got, err)
	}
}
