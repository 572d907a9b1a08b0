package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// Span names: one per layer boundary the traced pipeline crosses.
const (
	spanVerdict    = "verdict" // root: source text to verdict
	spanParser     = "parser"
	spanSem        = "sem"
	spanNormalize  = "normalize"
	spanCFG        = "cfg"
	spanDataflow   = "dataflow"
	spanClose      = "core.close"
	spanVerify     = "core.verify"
	spanCodegen    = "codegen"
	spanExplore    = "explore"
	spanCheckpoint = "checkpoint.encode"
)

// layers lists the span names in pipeline order; verdict's own self
// time is the unattributed remainder.
var layers = []string{spanParser, spanSem, spanNormalize, spanCFG, spanDataflow,
	spanClose, spanVerify, spanCodegen, spanExplore, spanCheckpoint, spanVerdict}

// span is one recorded interval. Start and End are nanoseconds since
// the tracer was made; Parent indexes the enclosing span (-1 for a
// root); Program is the id of the program being brought to a verdict.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Program int    `json:"program"`
}

// tracer keeps spans in memory; they are written out once the run ends.
// It is used from one goroutine: the explorer runs sequentially and
// calls the checkpoint callback on the caller's goroutine.
type tracer struct {
	t0      time.Time
	spans   []span
	open    []int // stack of open span indices
	program int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Program: t.program})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, and any span a panic left open inside it.
func (t *tracer) end(i int) {
	now := int64(time.Since(t.t0))
	for n := len(t.open) - 1; n >= 0; n-- {
		j := t.open[n]
		t.spans[j].End = now
		t.open = t.open[:n]
		if j == i {
			return
		}
	}
}

// selfTimes sums, per span name, each span's duration minus the time
// its child spans cover, in seconds. Children of one span never
// overlap: every call they time is sequential.
func (t *tracer) selfTimes() map[string]float64 {
	self := make(map[string]int64)
	for _, s := range t.spans {
		d := s.End - s.Start
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	out := make(map[string]float64, len(self))
	for name, ns := range self {
		out[name] = float64(ns) / 1e9
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
