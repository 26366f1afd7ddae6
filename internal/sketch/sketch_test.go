package sketch

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// sketchValues is a deterministic spread of awkward inputs: several octaves,
// bin-boundary values, underflow, duplicates.
func sketchValues() []float64 {
	r := rand.New(rand.NewSource(42))
	vals := []float64{0, 1e-12, 1e-9, 2e-9, 1, 1, 1, 2, 4, 1 << 20, 0.125, 0.1251}
	for i := 0; i < 500; i++ {
		vals = append(vals, math.Exp(r.Float64()*20-10)) // ~e^-10 .. e^10
	}
	return vals
}

func TestSketchQuantileWithinOneBinOfExact(t *testing.T) {
	vals := sketchValues()
	var s Sketch
	for _, v := range vals {
		s.Add(v)
	}
	if s.Count != int64(len(vals)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(vals))
	}
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		exact := ExactQuantile(vals, q)
		est := s.Quantile(q)
		if sketchIndex(exact) != sketchIndex(est) {
			t.Errorf("Quantile(%g) = %g not in the same bin as exact %g", q, est, exact)
		}
	}
	if got := s.Quantile(1); got != s.Max {
		t.Errorf("Quantile(1) = %g, want Max %g", got, s.Max)
	}
	// The clamped-midpoint estimate never leaves the observed range.
	for _, q := range []float64{0, 0.5, 1} {
		if est := s.Quantile(q); est < s.Min || est > s.Max {
			t.Errorf("Quantile(%g) = %g outside [%g, %g]", q, est, s.Min, s.Max)
		}
	}
}

func TestSketchMeanWithinBinWidthOfExact(t *testing.T) {
	vals := sketchValues()[4:] // drop underflow values, which bias the mean bin
	var s Sketch
	var sum float64
	for _, v := range vals {
		s.Add(v)
		sum += v
	}
	exact := sum / float64(len(vals))
	if got := s.Mean(); math.Abs(got-exact)/exact > 1.0/sketchSub {
		t.Errorf("Mean() = %g, exact %g: error beyond one bin width", got, exact)
	}
}

func TestSketchUnderflowAndOverflow(t *testing.T) {
	var s Sketch
	s.Add(math.NaN())
	s.Add(-1)
	s.Add(0)
	s.Add(1e-15)
	if s.Bins[0] != 4 {
		t.Errorf("underflow bin = %d, want 4", s.Bins[0])
	}
	huge := math.Ldexp(1, 40)
	s.Add(huge)
	if s.Bins[SketchBins-1] != 1 {
		t.Errorf("overflow bin = %d, want 1", s.Bins[SketchBins-1])
	}
	if s.Max != huge {
		t.Errorf("Max = %g, want %g", s.Max, huge)
	}
	if got := s.Quantile(1); got != huge {
		t.Errorf("Quantile(1) = %g, want %g (overflow estimate clamps to Max)", got, huge)
	}
}

func TestSketchJSONRoundTrip(t *testing.T) {
	var s Sketch
	for _, v := range sketchValues() {
		s.Add(v)
	}
	b, err := json.Marshal(&s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Sketch
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back != s {
		t.Fatalf("round trip mismatch")
	}
	b2, _ := json.Marshal(&back)
	if !bytes.Equal(b, b2) {
		t.Fatalf("re-marshal differs: %s vs %s", b, b2)
	}
	var empty Sketch
	if got := empty.Summary(); got != "empty" {
		t.Errorf("empty Summary = %q", got)
	}
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Errorf("empty sketch quantile/mean not zero")
	}
}

func TestSketchBinBoundsConsistent(t *testing.T) {
	// Every bin's bounds must contain exactly the values that index to it.
	for i := 1; i < SketchBins-1; i++ {
		lo, hi := sketchBinBounds(i)
		if got := sketchIndex(lo); got != i {
			t.Fatalf("bin %d: lower bound %g indexes to %d", i, lo, got)
		}
		mid := lo + (hi-lo)/2
		if got := sketchIndex(mid); got != i {
			t.Fatalf("bin %d: midpoint %g indexes to %d", i, mid, got)
		}
	}
}
