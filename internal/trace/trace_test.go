package trace

import (
	"bytes"
	"encoding/json"
	"slices"
	"sync"
	"testing"

	"mmdb/internal/stablemem"
)

func testMem() *stablemem.Memory {
	return stablemem.New(1<<20, 1, nil)
}

func TestFrameRoundtrip(t *testing.T) {
	events := []Event{
		{TS: 1, Seq: 1, Kind: KindTxnBegin, Txn: 7},
		{TS: 12345678, Seq: 2, Kind: KindSLBAppend, Txn: 7, Seg: 3, Part: 9, Arg: 24},
		{TS: 99, Seq: 3, Kind: KindPageFlush, Seg: 1, Part: 2, LSN: 41, Arg: 13},
		{TS: 100, Seq: 4, Kind: KindFaultTrigger, Arg: 17, Arg2: 2, Str: "log.write.primary:crash-torn"},
	}
	var buf []byte
	for i := range events {
		buf = appendFrame(buf, &events[i])
	}
	for _, want := range events {
		got, n, err := decodeFrame(buf)
		if err != nil {
			t.Fatalf("decodeFrame: %v", err)
		}
		if got != want {
			t.Fatalf("roundtrip mismatch: got %+v want %+v", got, want)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes after decoding all frames", len(buf))
	}
}

func TestDecodeRejectsTornAndCorrupt(t *testing.T) {
	e := Event{TS: 5, Seq: 1, Kind: KindTxnCommit, Txn: 3, Arg: 8, Str: "x"}
	whole := appendFrame(nil, &e)
	// Every strict prefix of a frame is a torn write and must error, not
	// misparse.
	for cut := 0; cut < len(whole); cut++ {
		if _, _, err := decodeFrame(whole[:cut]); err == nil {
			t.Fatalf("decodeFrame accepted a %d/%d-byte torn prefix", cut, len(whole))
		}
	}
	// An undefined kind byte must be rejected.
	bad := append([]byte(nil), whole...)
	bad[1] = byte(kindMax)
	if _, _, err := decodeFrame(bad); err == nil {
		t.Fatal("decodeFrame accepted an invalid kind")
	}
}

func TestFlightRingWrapKeepsNewest(t *testing.T) {
	mem := testMem()
	ring, err := NewFlightRing(mem, 256)
	if err != nil {
		t.Fatal(err)
	}
	const total = 200
	for i := 1; i <= total; i++ {
		e := Event{TS: int64(i), Seq: uint64(i), Kind: KindTxnBegin, Txn: uint64(i)}
		ring.Append(appendFrame(nil, &e))
	}
	got := ring.Events()
	if len(got) == 0 || len(got) >= total {
		t.Fatalf("ring of 256 bytes holds %d/%d events; want a strict newest window", len(got), total)
	}
	// The window must be the contiguous tail ending at the last append.
	if got[len(got)-1].Seq != total {
		t.Fatalf("last event Seq = %d, want %d", got[len(got)-1].Seq, total)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("event window not contiguous at %d: %d -> %d", i, got[i-1].Seq, got[i].Seq)
		}
	}
}

func TestFlightRingOversizedFrameDropped(t *testing.T) {
	mem := testMem()
	ring, err := NewFlightRing(mem, 32)
	if err != nil {
		t.Fatal(err)
	}
	e := Event{Kind: KindFaultTrigger, Str: string(make([]byte, 64))}
	ring.Append(appendFrame(nil, &e))
	if got := ring.Events(); len(got) != 0 {
		t.Fatalf("oversized frame partially written: %d events decoded", len(got))
	}
}

func TestFlightRingTornTailTruncated(t *testing.T) {
	mem := testMem()
	ring, err := NewFlightRing(mem, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		e := Event{Seq: uint64(i), Kind: KindTxnCommit, Txn: uint64(i)}
		ring.Append(appendFrame(nil, &e))
	}
	// Simulate a crash tearing the fourth frame: append only its first
	// half, exactly what an interrupted ring copy leaves behind.
	e := Event{Seq: 4, Kind: KindFaultTrigger, Str: "torn-victim"}
	frame := appendFrame(nil, &e)
	half := frame[:len(frame)/2]
	ring.mu.Lock()
	w := (ring.h + ring.used) % ring.reg.Size()
	ring.reg.WriteAt(w, half)
	ring.used += len(half)
	ring.mu.Unlock()

	got := ring.Events()
	if len(got) != 3 {
		t.Fatalf("decoded %d events, want the 3 whole frames before the torn tail", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d, want %d", i, e.Seq, i+1)
		}
	}
}

// After EmitLast the live trace is exactly the crash trace the next
// generation recovers, ending with the trigger; what is emitted after
// the seal is in neither.
func TestEmitLastSealsFlightRing(t *testing.T) {
	mem := testMem()
	tr, _, err := Attach(mem, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	tr.Emit(Event{Kind: KindTxnBegin, Txn: 1})
	tr.EmitLast(Event{Kind: KindFaultTrigger, Str: "stable.append:crash-before"})
	tr.Emit(Event{Kind: KindTxnAbort, Txn: 1}) // post-crash noise
	tr.EmitLast(Event{Kind: KindFaultTrigger, Str: "second-crash"})
	live := tr.Events()
	if len(live) != 2 {
		t.Fatalf("ring holds %d events, want 2 (sealed after the trigger)", len(live))
	}
	if last := live[len(live)-1]; last.Kind != KindFaultTrigger || last.Str != "stable.append:crash-before" {
		t.Fatalf("final event = %+v, want the first fault trigger", last)
	}
	_, crash, err := Attach(mem, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(crash, live) {
		t.Fatalf("recovered crash trace %+v, want the sealed live trace %+v", crash, live)
	}
}

// Emit on a full ring evicts the oldest frames without allocating: the
// evicted frame's header is read into a stack buffer.
func TestEmitOnFullRingAllocatesNothing(t *testing.T) {
	tr, _, err := Attach(testMem(), 256)
	if err != nil {
		t.Fatal(err)
	}
	e := Event{Kind: KindSLBAppend, Txn: 7, Seg: 2, Part: 3, Arg: 24}
	for i := 0; i < 64; i++ { // fill the ring and grow the encode buffer
		tr.Emit(e)
	}
	if n := testing.AllocsPerRun(1000, func() { tr.Emit(e) }); n != 0 {
		t.Fatalf("Emit on a full ring allocates %.1f times, want 0", n)
	}
}

// The ring holds events in sequence order whatever the emitters'
// interleaving: a reader that takes the newest event for the latest
// (the crash trigger, after EmitLast) relies on it.
func TestConcurrentEmitKeepsRingInSeqOrder(t *testing.T) {
	tr, _, err := Attach(testMem(), 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Emit(Event{Kind: KindTxnBegin})
			}
		}()
	}
	wg.Wait()
	got := tr.Events()
	if len(got) != 8000 {
		t.Fatalf("ring holds %d events, want 8000", len(got))
	}
	for i, e := range got {
		if want := uint64(i + 1); e.Seq != want {
			t.Fatalf("ring position %d has seq %d, want %d", i, e.Seq, want)
		}
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: KindTxnBegin})
	tr.EmitLast(Event{Kind: KindFaultTrigger})
	if tr.Events() != nil {
		t.Fatal("nil tracer must be inert")
	}
}

func TestAttachRecoversCrashTrace(t *testing.T) {
	mem := testMem()
	tr, crash, err := Attach(mem, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(crash) != 0 {
		t.Fatalf("fresh memory yielded %d crash events", len(crash))
	}
	tr.Emit(Event{Kind: KindTxnBegin, Txn: 42})
	tr.Emit(Event{Kind: KindTxnCommit, Txn: 42, Arg: 3})
	tr.EmitLast(Event{Kind: KindFaultTrigger, Str: "crash.forced"})

	// Next generation on the same stable memory: the pre-crash timeline
	// must come back, ending with the trigger event.
	tr2, crash, err := Attach(mem, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(crash) != 3 {
		t.Fatalf("recovered %d crash events, want 3", len(crash))
	}
	if crash[0].Txn != 42 || crash[0].Kind != KindTxnBegin {
		t.Fatalf("first crash event = %+v", crash[0])
	}
	if last := crash[len(crash)-1]; last.Kind != KindFaultTrigger || last.Str != "crash.forced" {
		t.Fatalf("crash trace does not end with the trigger: %+v", last)
	}
	// The reused ring starts empty for the new generation.
	if got := tr2.Events(); len(got) != 0 {
		t.Fatalf("reused flight ring not reset: %d events", len(got))
	}

	// Disabling tracing still recovers the trace once, then frees the
	// ring so a third attach sees nothing.
	tr2.Emit(Event{Kind: KindTxnBegin, Txn: 1})
	used := mem.Used()
	tr3, crash, err := Attach(mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr3 != nil {
		t.Fatal("Attach with a zero size returned a live tracer")
	}
	if len(crash) != 1 {
		t.Fatalf("disabled attach recovered %d events, want 1", len(crash))
	}
	if mem.Used() >= used {
		t.Fatalf("flight ring reservation not released: %d -> %d", used, mem.Used())
	}
	if _, crash, _ := Attach(mem, 0); len(crash) != 0 {
		t.Fatalf("freed ring still yielded %d crash events", len(crash))
	}
}

func TestWriteChromeProducesValidJSON(t *testing.T) {
	events := []Event{
		{TS: 1000, Seq: 1, Kind: KindTxnBegin, Txn: 1},
		{TS: 2000, Seq: 2, Kind: KindLockBlock, Txn: 2, Arg: 77, Arg2: 2},
		{TS: 3000, Seq: 3, Kind: KindLockGrant, Txn: 2, Arg: 77, Arg2: 2},
		{TS: 4000, Seq: 4, Kind: KindCkptBegin, Txn: 3, Seg: 5, Part: 1},
		{TS: 5000, Seq: 5, Kind: KindTxnCommit, Txn: 1, Arg: 4},
		{TS: 6000, Seq: 6, Kind: KindFaultTrigger, Str: "ckpt.write:crash-before"},
		// CkptBegin has no matching end: the crash cut it. It must still
		// appear (as an instant), not vanish.
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	var haveTxnSpan, haveLockSpan, haveCkptInstant, haveLane bool
	for _, ev := range parsed.TraceEvents {
		switch ev["ph"] {
		case "M":
			haveLane = true
		case "X":
			if ev["cat"] == "txn" {
				haveTxnSpan = true
			}
			if ev["cat"] == "lock" {
				haveLockSpan = true
			}
		case "i":
			if ev["cat"] == "checkpoint" {
				haveCkptInstant = true
			}
		}
	}
	if !haveLane {
		t.Fatal("no metadata lane events in chrome export")
	}
	if !haveTxnSpan {
		t.Fatal("txn begin/commit pair did not become a span")
	}
	if !haveLockSpan {
		t.Fatal("lock block/grant pair did not become a span")
	}
	if !haveCkptInstant {
		t.Fatal("unmatched ckpt-begin did not surface as an instant")
	}
}

func TestEventStringMentionsFields(t *testing.T) {
	e := Event{TS: 1500000, Seq: 9, Kind: KindSLBAppend, Txn: 4, Seg: 2, Part: 7, Arg: 24}
	s := e.String()
	for _, want := range []string{"slb", "slb-append", "txn=4", "part=2.7", "arg=24"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}

func TestWriteChromeSweepWorkerLanes(t *testing.T) {
	events := []Event{
		{TS: 1000, Seq: 1, Kind: KindSweepBegin},
		{TS: 1100, Seq: 2, Kind: KindSweepWorkerBegin, Arg: 0},
		{TS: 1200, Seq: 3, Kind: KindSweepWorkerBegin, Arg: 1},
		{TS: 1500, Seq: 4, Kind: KindSweepError, Seg: 2, Part: 3, Str: "injected"},
		{TS: 2000, Seq: 5, Kind: KindSweepWorkerEnd, Arg: 1, Arg2: 4},
		{TS: 2500, Seq: 6, Kind: KindSweepWorkerEnd, Arg: 0, Arg2: 5},
		{TS: 2600, Seq: 7, Kind: KindSweepEnd, Arg: 9, Arg2: 0},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	// Worker spans must land on distinct dynamic lanes, each with a
	// thread_name metadata event, and the sweep-error must surface as
	// an instant.
	workerTIDs := map[any]string{}
	laneNames := map[string]bool{}
	var haveErrInstant bool
	for _, ev := range parsed.TraceEvents {
		switch ev["ph"] {
		case "M":
			if args, ok := ev["args"].(map[string]any); ok {
				if n, _ := args["name"].(string); n != "" {
					laneNames[n] = true
				}
			}
		case "X":
			if name, _ := ev["name"].(string); name == "sweep-worker-0" || name == "sweep-worker-1" {
				workerTIDs[ev["tid"]] = name
			}
		case "i":
			if name, _ := ev["name"].(string); name == "sweep-error" {
				haveErrInstant = true
			}
		}
	}
	if len(workerTIDs) != 2 {
		t.Fatalf("worker spans on %d distinct lanes, want 2 (%v)", len(workerTIDs), workerTIDs)
	}
	if !laneNames["sweep-w0"] || !laneNames["sweep-w1"] {
		t.Fatalf("missing sweep worker lane names: %v", laneNames)
	}
	if !haveErrInstant {
		t.Fatal("sweep-error did not surface as an instant")
	}
}
