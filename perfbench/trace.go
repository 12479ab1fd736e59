package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval around a call into a layer. Spans of one
// operation share a run id; parent links a span to the span that caused
// it (0 for a root).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Run    string  `json:"run"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// recorder keeps spans in memory until the benchmark writes them out at
// the end. A nil recorder records nothing, and so does one whose on flag
// is false: untraced operations pay one atomic load.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now()}
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// begin opens a span and returns a function that closes it, plus the
// span's id for children. When the recorder is off it returns a no-op
// and id 0.
func (r *recorder) begin(name, run string, parent int64) (end func(), id int64) {
	if !r.enabled() {
		return func() {}, 0
	}
	id = r.next.Add(1)
	start := time.Since(r.epoch).Seconds()
	return func() {
		s := span{ID: id, Parent: parent, Name: name, Run: run, Start: start, End: time.Since(r.epoch).Seconds()}
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}, id
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span name, the self time of each span: its
// duration minus the part of its interval its children cover.
func selfTimes(spans []span) map[string][]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], (s.End-s.Start)-covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	kids = append([]span(nil), kids...)
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	total, lo, hi := 0.0, 0.0, -1.0
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	if hi > lo {
		total += hi - lo
	}
	return total
}

// writeSpans writes the recorded spans as a JSON array.
func writeSpans(path string, spans []span) error {
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
