package stats

import (
	"math"
	"slices"
	"testing"

	"fxpar/internal/sketch"
)

// feedBoth records the same (inject, complete) schedule into a retaining and
// a sketch-mode stream.
func feedBoth(pairs [][2]float64) (exact, sketched *Stream) {
	exact, sketched = NewStream(), NewSketchStream()
	for i, p := range pairs {
		exact.Inject(i, p[0])
		sketched.Inject(i, p[0])
	}
	for i, p := range pairs {
		exact.Complete(i, p[1])
		sketched.Complete(i, p[1])
	}
	return exact, sketched
}

// TestSketchModeMatchesExactWithinOneBin is the exact-vs-sketch equivalence
// contract: same stream, both modes — identical set counts, throughput, and
// max latency; mean and quantiles within one sketch bin (≤ ~7% relative for
// the 8-subbucket binning).
func TestSketchModeMatchesExactWithinOneBin(t *testing.T) {
	var pairs [][2]float64
	x := uint64(99)
	for i := 0; i < 500; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		inj := float64(i) * 0.01
		lat := 0.05 + float64(x%1000)/2000 // 50..550 ms
		pairs = append(pairs, [2]float64{inj, inj + lat})
	}
	exact, sketched := feedBoth(pairs)
	re, rs := exact.Summarize(), sketched.Summarize()
	if re.Sketched || !rs.Sketched {
		t.Fatalf("Sketched flags: exact=%v sketch=%v", re.Sketched, rs.Sketched)
	}
	if rs.Sets != re.Sets || rs.Throughput != re.Throughput || rs.MaxLatency != re.MaxLatency {
		t.Errorf("exact-fold fields differ: exact %+v, sketch %+v", re, rs)
	}
	relErr := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(a, b) }
	if relErr(re.Latency, rs.Latency) > 0.07 {
		t.Errorf("mean latency: exact %g, sketch %g", re.Latency, rs.Latency)
	}
	for _, q := range []struct {
		name   string
		ex, sk float64
	}{{"p50", re.LatencyP50, rs.LatencyP50}, {"p99", re.LatencyP99, rs.LatencyP99}} {
		var both sketch.Sketch // one bin holds both when they share a bin
		both.Add(q.ex)
		both.Add(q.sk)
		if !slices.Contains(both.Bins[:], 2) && relErr(q.ex, q.sk) > 0.07 {
			t.Errorf("%s: exact %g, sketch %g — more than one bin apart", q.name, q.ex, q.sk)
		}
	}
}

// TestSketchModeReleasesInFlightEntries pins the O(in-flight) memory claim:
// completed sets leave the injection map.
func TestSketchModeReleasesInFlightEntries(t *testing.T) {
	s := NewSketchStream()
	for i := 0; i < 100; i++ {
		s.Inject(i, float64(i))
	}
	for i := 0; i < 90; i++ {
		s.Complete(i, float64(i)+1)
	}
	if got := len(s.inject); got != 10 {
		t.Errorf("in flight = %d, want 10", got)
	}
	if got := s.Count(); got != 90 {
		t.Errorf("Count() = %d, want 90", got)
	}
	if s.sketch == nil {
		t.Errorf("a sketch stream holds no sketch")
	}
	if s.sketch.Count != 90 {
		t.Errorf("latency sketch count = %d, want 90", s.sketch.Count)
	}
}

// TestSketchModeDoubleCompletePanics: the exactly-once contract is enforced,
// not silently miscounted.
func TestSketchModeDoubleCompletePanics(t *testing.T) {
	s := NewSketchStream()
	s.Inject(0, 1)
	s.Complete(0, 2)
	defer func() {
		if recover() == nil {
			t.Errorf("second Complete did not panic")
		}
	}()
	s.Complete(0, 3)
}

// TestSketchModeEmptyAndSingle covers the throughput conventions in sketch
// mode.
func TestSketchModeEmptyAndSingle(t *testing.T) {
	if r := NewSketchStream().Summarize(); r.Sets != 0 || !r.Sketched {
		t.Errorf("empty sketch stream: %+v", r)
	}
	s := NewSketchStream()
	s.Inject(0, 0)
	s.Complete(0, 2)
	r := s.Summarize()
	if r.Sets != 1 || r.MaxLatency != 2 {
		t.Errorf("single-set sketch result: %+v", r)
	}
	if math.Abs(r.Throughput*r.Latency-1) > 0.07 {
		t.Errorf("single-set convention broken: throughput %g, latency %g", r.Throughput, r.Latency)
	}
}
