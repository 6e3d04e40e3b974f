package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// Span names. The harness records spans around its own calls into the
// program; spans inside the program are a later issue.
const (
	spTxn     = "txn" // one generated transaction, root of its facade calls
	spBegin   = "mmdb.begin"
	spLookup  = "mmdb.lookup"
	spGet     = "mmdb.get"
	spUpdate  = "mmdb.update"
	spInsert  = "mmdb.insert"
	spCommit  = "mmdb.commit"
	spAbort   = "mmdb.abort"
	spRecover = "mmdb.recover"
	spWire    = "client.debit_credit"
)

// span is one timed interval: {name,start,end,parent,txn}. Parent is the
// index of the causing span in the trace (-1 for a root); spans of one
// transaction share txn.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Txn    int64  `json:"txn"`
}

// tracer keeps spans in memory and writes them when the benchmark ends. A nil
// tracer records nothing, so untraced rounds pay one branch per call.
// Not safe for concurrent use: each caller goroutine owns its own.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index, to be passed to end.
func (t *tracer) begin(name string, parent int, txn int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Txn: txn})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover, and counts the spans.
func selfTimes(spans []span) (self map[string]int64, count map[string]int) {
	self = map[string]int64{}
	count = map[string]int{}
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - child[i]
		count[s.Name]++
	}
	return self, count
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := 0 // parents are indexes within a tracer; in the file, line numbers
	for _, t := range tracers {
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			if err := enc.Encode(&s); err != nil {
				_ = f.Close()
				return err
			}
		}
		base += len(t.spans)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
