package main

import (
	"sort"
	"sync"
	"time"
)

// span is one harness-side interval around a public call into a layer.
// Times are milliseconds since process start. Parent is an index into the
// recorder's span list, -1 for a root. Rep ties the spans of one timed
// repetition (or one request) together.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Parent int     `json:"parent"`
	Rep    string  `json:"rep"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced run: begin and end do nothing, so the timed path is the same code
// with tracing off.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func sinceStartMS() float64 { return float64(time.Since(processStart)) / 1e6 }

// begin opens a span and returns its id (-1 when untraced).
func (r *recorder) begin(name string, parent int, rep string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Rep: rep, Start: sinceStartMS()})
	return len(r.spans) - 1
}

// repOf returns the rep label of span id ("" for no span).
func (r *recorder) repOf(id int) string {
	if r == nil || id < 0 {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].Rep
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := sinceStartMS()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName totals self time per span name: the layer breakdown written
// beside the spans in the trace file.
func selfByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, t := range selfTimes(spans) {
		out[spans[i].Name] += t
	}
	return out
}
