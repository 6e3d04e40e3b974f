package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event export: the JSON Object Format understood by
// chrome://tracing and Perfetto ({"traceEvents": [...]}). Each
// subsystem gets its own lane (thread), named via metadata events;
// begin/end pairs (txn begin→commit, lock block→grant, checkpoint
// begin→end, restart phases) become complete ("X") duration events,
// everything else an instant ("i") event.

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
	Sc   string         `json:"s,omitempty"` // instant-event scope
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// laneOrder fixes lane numbering so exports are stable across runs.
var laneOrder = []string{"txn", "lock", "slb", "log", "checkpoint", "restart", "fault", "server"}

// spanStart describes which kinds open a span and which close it.
var spanEnd = map[Kind][]Kind{
	KindTxnBegin:         {KindTxnCommit, KindTxnAbort},
	KindLockBlock:        {KindLockGrant},
	KindCkptBegin:        {KindCkptEnd, KindCkptFail},
	KindRootScanBegin:    {KindRootScanEnd},
	KindSweepBegin:       {KindSweepEnd},
	KindSweepWorkerBegin: {KindSweepWorkerEnd},
}

// spanKey pairs a begin event with its end: transactions and lock waits
// by transaction ID, checkpoints by partition, sweep workers by worker
// index, restart phases globally.
func spanKey(e Event) uint64 {
	switch e.Kind {
	case KindTxnBegin, KindTxnCommit, KindTxnAbort, KindLockBlock, KindLockGrant:
		return e.Txn
	case KindCkptBegin, KindCkptEnd, KindCkptFail:
		return e.Seg<<32 | e.Part
	case KindSweepWorkerBegin, KindSweepWorkerEnd:
		return e.Arg
	}
	return 0
}

func spanName(begin, end Event) string {
	switch begin.Kind {
	case KindTxnBegin:
		if end.Kind == KindTxnAbort {
			return "txn(aborted)"
		}
		return "txn"
	case KindLockBlock:
		return "lock-wait"
	case KindCkptBegin:
		if end.Kind == KindCkptFail {
			return "checkpoint(failed)"
		}
		return "checkpoint"
	case KindRootScanBegin:
		return "root-scan"
	case KindSweepBegin:
		return "background-sweep"
	case KindSweepWorkerBegin:
		return fmt.Sprintf("sweep-worker-%d", begin.Arg)
	}
	return begin.Kind.String()
}

func eventArgs(e Event) map[string]any {
	args := map[string]any{"seq": e.Seq}
	if e.Txn != 0 {
		args["txn"] = e.Txn
	}
	if e.Seg != 0 || e.Part != 0 {
		args["segment"] = e.Seg
		args["partition"] = e.Part
	}
	if e.LSN != 0 {
		args["lsn"] = e.LSN
	}
	if e.Arg != 0 {
		args["arg"] = e.Arg
	}
	if e.Arg2 != 0 {
		args["arg2"] = e.Arg2
	}
	if e.Str != "" {
		args["label"] = e.Str
	}
	return args
}

// WriteChrome writes events as Chrome trace_event JSON. Events need not
// be sorted; they are ordered by sequence number first so begin/end
// pairing is deterministic.
func WriteChrome(w io.Writer, events []Event) error {
	evs := append([]Event(nil), events...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })

	lane := make(map[string]int, len(laneOrder))
	var out []chromeEvent
	for i, name := range laneOrder {
		lane[name] = i + 1
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: i + 1,
			Args: map[string]any{"name": name},
		})
	}
	// laneFor assigns lanes, materialising one extra lane per sweep
	// worker so the parallel-recovery fan-out is visible as concurrent
	// rows instead of stacked spans on the restart lane.
	laneFor := func(e Event) int {
		name := e.Kind.Subsystem()
		if e.Kind == KindSweepWorkerBegin || e.Kind == KindSweepWorkerEnd {
			name = fmt.Sprintf("sweep-w%d", e.Arg)
		}
		id, ok := lane[name]
		if !ok {
			id = len(lane) + 1
			lane[name] = id
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: id,
				Args: map[string]any{"name": name},
			})
		}
		return id
	}

	usec := func(ns int64) float64 { return float64(ns) / 1e3 }

	// open[kind][key] = indexes into evs of unmatched begin events.
	type opener struct{ idx int }
	open := map[Kind]map[uint64][]opener{}
	matched := make([]bool, len(evs))
	for i, e := range evs {
		if _, isBegin := spanEnd[e.Kind]; isBegin {
			k := spanKey(e)
			if open[e.Kind] == nil {
				open[e.Kind] = map[uint64][]opener{}
			}
			open[e.Kind][k] = append(open[e.Kind][k], opener{i})
			continue
		}
		// Is e an end kind for some begin kind?
		for beginKind, ends := range spanEnd {
			for _, ek := range ends {
				if e.Kind != ek {
					continue
				}
				k := spanKey(e)
				stack := open[beginKind][k]
				if len(stack) == 0 {
					continue
				}
				bi := stack[len(stack)-1].idx
				open[beginKind][k] = stack[:len(stack)-1]
				b := evs[bi]
				matched[bi], matched[i] = true, true
				out = append(out, chromeEvent{
					Name: spanName(b, e),
					Cat:  b.Kind.Subsystem(),
					Ph:   "X",
					TS:   usec(b.TS),
					Dur:  usec(e.TS - b.TS),
					PID:  1,
					TID:  laneFor(b),
					Args: eventArgs(e),
				})
			}
		}
	}
	// Everything unmatched — instants, and begin events whose end never
	// came (e.g. a checkpoint cut down by the crash) — exports as an
	// instant event so it is still visible on its lane.
	for i, e := range evs {
		if matched[i] {
			continue
		}
		out = append(out, chromeEvent{
			Name: e.Kind.String(),
			Cat:  e.Kind.Subsystem(),
			Ph:   "i",
			TS:   usec(e.TS),
			PID:  1,
			TID:  laneFor(e),
			Args: eventArgs(e),
			Sc:   "t",
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Ph == "M" || out[j].Ph == "M" {
			return out[i].Ph == "M" && out[j].Ph != "M"
		}
		return out[i].TS < out[j].TS
	})
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: out})
}
