// Package stats meters streams of data sets flowing through a task-parallel
// program in virtual time, producing the two performance criteria of
// Section 5.1: throughput (data sets per second) and latency (seconds per
// data set).
//
// Recording is host-thread-safe (different simulated processors record
// concurrently), and the recorded values are virtual times, so the derived
// metrics are deterministic.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"fxpar/internal/sketch"
)

// Stream records the injection and completion virtual times of each data
// set in a stream. It has two modes:
//
//   - Retaining (NewStream): per-set times are kept, duplicates tolerated
//     (earliest injection, latest completion win), latency statistics exact.
//     Memory is O(sets).
//   - Sketch (NewSketchStream): the scale tier. Latencies fold into a
//     mergeable fixed-bin quantile sketch at completion time and the
//     injection entry is deleted, so memory is O(in-flight sets) — flat for
//     a stream of any length. The mode demands the exactly-once metering
//     contract every mapping in this codebase already obeys (one processor —
//     group rank 0 — records each set's injection and completion); a second
//     Complete for a set panics like a never-injected set does.
type Stream struct {
	mu       sync.Mutex
	inject   map[int]float64
	complete map[int]float64 // nil in sketch mode

	// Sketch-mode accumulators. The sketch's integer bins make the latency
	// statistics order-independent; the scalar folds (count, min/max, first/
	// last completion) are exact, so Summarize stays deterministic no matter
	// how host scheduling interleaves Complete calls.
	sketch        *sketch.Sketch
	count         int
	firstC, lastC float64
	maxLat        float64
}

// NewStream returns an empty stream meter in retaining mode.
func NewStream() *Stream {
	return &Stream{inject: make(map[int]float64), complete: make(map[int]float64)}
}

// NewSketchStream returns an empty stream meter in sketch mode: O(in-flight)
// memory, latency quantiles from a fixed-bin sketch.
func NewSketchStream() *Stream {
	return &Stream{inject: make(map[int]float64), sketch: &sketch.Sketch{}, firstC: math.Inf(1)}
}

// Inject records that data set i entered the system at virtual time t.
// Recording the same set twice keeps the earlier time (several processors
// of the first stage may record the same set).
func (s *Stream) Inject(i int, t float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.inject[i]; !ok || t < old {
		s.inject[i] = t
	}
}

// Complete records that data set i left the system at virtual time t.
// In retaining mode, recording the same set twice keeps the later time; in
// sketch mode the latency folds into the sketch immediately and the set's
// injection entry is released, so each set must complete exactly once.
func (s *Stream) Complete(i int, t float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sketch == nil {
		if old, ok := s.complete[i]; !ok || t > old {
			s.complete[i] = t
		}
		return
	}
	inj, ok := s.inject[i]
	if !ok {
		panic(fmt.Sprintf("stats: data set %d completed but never injected (or completed twice in sketch mode)", i))
	}
	delete(s.inject, i)
	lat := t - inj
	if lat < 0 {
		panic(fmt.Sprintf("stats: data set %d completed at %g before injection at %g", i, t, inj))
	}
	s.sketch.Add(lat)
	if lat > s.maxLat {
		s.maxLat = lat
	}
	if t < s.firstC {
		s.firstC = t
	}
	if t > s.lastC {
		s.lastC = t
	}
	s.count++
}

// Count returns the number of completed data sets.
func (s *Stream) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sketch != nil {
		return s.count
	}
	return len(s.complete)
}

// Result summarizes a metered stream.
type Result struct {
	// Sets is the number of completed data sets.
	Sets int
	// Throughput is the steady-state rate in data sets per virtual second:
	// (n-1) / (last completion - first completion) for n > 1. When all n
	// sets complete at the same virtual instant (a one-batch stream, e.g.
	// every module finishing together), that span is degenerate and the
	// rate falls back to n / Latency — n sets delivered in one latency's
	// worth of pipeline occupancy. For a single-set stream there is no
	// steady state at all, and by convention Throughput = 1 / Latency.
	Throughput float64
	// Latency is the mean completion-minus-injection time. In sketch mode it
	// is the sketch's bin-weighted mean (within one bin width of exact).
	Latency float64
	// MaxLatency is the worst per-set latency (exact in both modes).
	MaxLatency float64
	// LatencyP50/LatencyP99 are per-set latency quantiles: exact order
	// statistics in retaining mode, sketch bin estimates in sketch mode
	// (within one log-linear bin of exact — the equivalence the tests pin).
	LatencyP50 float64
	LatencyP99 float64
	// Sketched reports that the latency figures came from the fixed-bin
	// sketch, so consumers can mark them as estimates.
	Sketched bool
}

// Summarize computes the stream's Result. It panics if a completed set was
// never injected (a metering bug) and returns a zero Result for an empty
// stream.
func (s *Stream) Summarize() Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sketch != nil {
		return s.summarizeSketch()
	}
	n := len(s.complete)
	if n == 0 {
		return Result{}
	}
	var firstC, lastC float64
	firstC = math.Inf(1)
	var sumLat, maxLat float64
	// Sum in set order: float addition is order-sensitive at the ulp, and
	// map iteration order is randomized, so ranging the map directly makes
	// Latency differ between identical runs.
	sets := make([]int, 0, n)
	for i := range s.complete {
		sets = append(sets, i)
	}
	sort.Ints(sets)
	lats := make([]float64, 0, n)
	for _, i := range sets {
		c := s.complete[i]
		inj, ok := s.inject[i]
		if !ok {
			panic(fmt.Sprintf("stats: data set %d completed but never injected", i))
		}
		lat := c - inj
		if lat < 0 {
			panic(fmt.Sprintf("stats: data set %d completed at %g before injection at %g", i, c, inj))
		}
		sumLat += lat
		lats = append(lats, lat)
		if lat > maxLat {
			maxLat = lat
		}
		if c < firstC {
			firstC = c
		}
		if c > lastC {
			lastC = c
		}
	}
	r := Result{
		Sets: n, Latency: sumLat / float64(n), MaxLatency: maxLat,
		LatencyP50: sketch.ExactQuantile(lats, 0.5),
		LatencyP99: sketch.ExactQuantile(lats, 0.99),
	}
	r.Throughput = throughput(n, firstC, lastC, r.Latency)
	return r
}

// throughput is the rate of a stream of n completed sets, the first
// completing at firstC and the last at lastC, with mean latency lat.
func throughput(n int, firstC, lastC, lat float64) float64 {
	switch {
	case n > 1 && lastC > firstC:
		return float64(n-1) / (lastC - firstC)
	case n > 1 && lat > 0:
		// Degenerate span: all completions share one virtual timestamp, so
		// the inter-completion rate is undefined. The stream still delivered
		// n sets, so account for all of them rather than collapsing to the
		// single-set rate (which under-reports by up to n×).
		return float64(n) / lat
	case lat > 0:
		// Single-set convention: one set in one latency.
		return 1 / lat
	}
	return 0
}

// summarizeSketch derives the Result from the sketch-mode accumulators.
// Caller holds s.mu. Every input is either an exact scalar fold (count,
// max latency, completion extrema) or a pure function of the sketch's
// integer bins, so the result is deterministic regardless of the order
// Complete calls arrived in.
func (s *Stream) summarizeSketch() Result {
	n := s.count
	if n == 0 {
		return Result{Sketched: true}
	}
	r := Result{
		Sets: n, Latency: s.sketch.Mean(), MaxLatency: s.maxLat,
		LatencyP50: s.sketch.Quantile(0.5),
		LatencyP99: s.sketch.Quantile(0.99),
		Sketched:   true,
	}
	r.Throughput = throughput(n, s.firstC, s.lastC, r.Latency)
	return r
}

func (r Result) String() string {
	return fmt.Sprintf("%d sets, %.3f sets/s, latency %.4f s (max %.4f s)",
		r.Sets, r.Throughput, r.Latency, r.MaxLatency)
}
