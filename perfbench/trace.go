package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function. Spans that belong
// to one wire batch or one query share ID; Parent indexes the span that
// made the call (-1 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the work the span covers (edges, calls or runs, per its name).
	N int `json:"n,omitempty"`
}

// tracer keeps spans in memory; they are written out once, at the end. It
// is used from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(id uint64, parent int, name string) int {
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i, n int) {
	t.spans[i].End = t.now()
	t.spans[i].N = n
}

// layerStat is the aggregate of every span of one name.
type layerStat struct {
	calls  int
	n      int   // Σ span.N
	selfNs int64 // Σ (duration − children's durations)
	durs   []float64
}

// stats aggregates spans by name. Spans here never overlap their siblings
// (one goroutine makes every call), so a span's self time is its duration
// minus the sum of its children's durations.
func (t *tracer) stats() map[string]*layerStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerStat)
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.calls++
		st.n += s.N
		st.selfNs += d - child[i]
		st.durs = append(st.durs, float64(d))
	}
	return out
}

// write stores the spans with the run metadata as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"meta": meta, "spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
