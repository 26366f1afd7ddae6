package sketch

// Sketch is a mergeable, deterministic quantile sketch over non-negative
// virtual-time durations. It is the scale tier's replacement for raw-sample
// retention: memory is a fixed ~4KB regardless of how many values are added,
// and merging two sketches is pure integer addition plus min/max folds, so
// the result of merging any number of per-shard sketches is byte-identical
// under every merge order. That property is what lets per-proc telemetry
// shards fold up an O(log P) tree in whatever grouping is convenient while
// still producing one canonical answer.
//
// Binning is logarithmic with linear interpolation inside each octave
// (HDR-histogram style, computed from math.Frexp so no transcendental call
// sits on the hot path): sketchSub sub-buckets per power of two, giving a
// worst-case relative bin width of 1/sketchSub (12.5% at sketchSub=8).
// Quantile estimates clamp to the observed [Min, Max], so on small inputs
// the estimate is always within one bin of the exact order statistic —
// the contract the exact-vs-sketch equivalence tests pin.
//
// Bin 0 is the underflow bin: NaN, negative, and sub-nanosecond values all
// land there (matching Histogram's clamp semantics), and the final bin
// catches overflow beyond ~2^34 virtual seconds.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

const (
	// sketchSubBits fixes the sub-bucket count per octave; 8 sub-buckets
	// bound the relative error of a midpoint estimate at ~6.25%.
	sketchSubBits = 3
	sketchSub     = 1 << sketchSubBits
	// sketchMinExp is the exponent of the smallest distinguishable value:
	// 2^-30 s ≈ 0.93 ns of virtual time. Anything smaller is underflow.
	sketchMinExp = -30
	// sketchOctaves spans 2^-30 .. 2^34 seconds — far beyond any makespan
	// the simulator produces.
	sketchOctaves = 64
	// SketchBins is the fixed bin count: underflow + octaves*sub + overflow.
	SketchBins = sketchOctaves*sketchSub + 2
)

// sketchMinValue is the lower bound of bin 1 (2^sketchMinExp seconds).
var sketchMinValue = math.Ldexp(1, sketchMinExp)

// Sketch accumulates values into fixed log-spaced bins. The zero value is
// an empty sketch ready for use. Sketch is not concurrency-safe.
type Sketch struct {
	Count int64
	Min   float64
	Max   float64
	Bins  [SketchBins]int64
}

// sketchIndex maps a value to its bin. Pure function of the value: the same
// v always lands in the same bin on every platform (frexp is exact).
func sketchIndex(v float64) int {
	if !(v >= sketchMinValue) { // catches NaN, negatives, underflow
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	oct := exp - 1 - sketchMinExp
	if oct < 0 {
		return 0
	}
	if oct >= sketchOctaves {
		return SketchBins - 1
	}
	sub := int((frac*2 - 1) * sketchSub) // linear position inside the octave
	if sub >= sketchSub {
		sub = sketchSub - 1
	}
	return 1 + oct*sketchSub + sub
}

// sketchBinBounds returns the half-open value range [lo, hi) of a bin.
func sketchBinBounds(i int) (lo, hi float64) {
	switch {
	case i <= 0:
		return 0, sketchMinValue
	case i >= SketchBins-1:
		return math.Ldexp(1, sketchMinExp+sketchOctaves), math.Inf(1)
	}
	oct := (i - 1) / sketchSub
	sub := (i - 1) % sketchSub
	base := math.Ldexp(1, sketchMinExp+oct)
	step := base / sketchSub
	lo = base + float64(sub)*step
	return lo, lo + step
}

// Add records one value. NaN and negative values are clamped to 0 (the
// underflow bin), matching Histogram's semantics, so Min/Max stay ordered.
func (s *Sketch) Add(v float64) {
	if !(v >= 0) {
		v = 0
	}
	if s.Count == 0 {
		s.Min, s.Max = v, v
	} else {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Count++
	s.Bins[sketchIndex(v)]++
}

// binEstimate is the representative value reported for a bin: the midpoint,
// clamped to the observed [Min, Max] so estimates never leave the data's
// range (this is what makes small-P estimates land within one bin of exact).
func (s *Sketch) binEstimate(i int) float64 {
	if i >= SketchBins-1 {
		// The overflow bin has no midpoint; the observed Max is the best
		// (and a deterministic) representative.
		return s.Max
	}
	lo, hi := sketchBinBounds(i)
	mid := lo + (hi-lo)/2
	if mid < s.Min {
		mid = s.Min
	}
	if mid > s.Max {
		mid = s.Max
	}
	return mid
}

// Quantile returns the estimate for quantile q in [0, 1] (q=0.5 is the
// median, q=1 the max). The rank convention matches sorting the values and
// taking element ceil(q*Count) (1-based), so Quantile(1) == Max exactly and
// every estimate is the representative of the bin holding that order
// statistic. Returns 0 on an empty sketch.
func (s *Sketch) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen int64
	for i := range s.Bins {
		seen += s.Bins[i]
		if seen >= rank {
			return s.binEstimate(i)
		}
	}
	return s.Max
}

// Mean returns the bin-weighted mean: sum over bins of count*representative
// in fixed ascending bin order, divided by Count. Because it is computed
// from the (merge-order-invariant) bins rather than a running float sum, it
// is byte-identical however the sketch was sharded and merged — at the cost
// of the bin-width relative error. Returns 0 on an empty sketch.
func (s *Sketch) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	var sum float64
	for i := range s.Bins {
		if c := s.Bins[i]; c != 0 {
			sum += float64(c) * s.binEstimate(i)
		}
	}
	return sum / float64(s.Count)
}

// sketchJSON is the wire form: occupied bins as sorted [index, count]
// pairs, so the encoding is sparse, canonical, and diff-stable.
type sketchJSON struct {
	Count int64      `json:"count"`
	Min   float64    `json:"min"`
	Max   float64    `json:"max"`
	Bins  [][2]int64 `json:"bins"`
}

// MarshalJSON encodes the sketch sparsely: only occupied bins, in ascending
// index order. Two equal sketches always serialize to identical bytes.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	w := sketchJSON{Count: s.Count, Min: s.Min, Max: s.Max, Bins: [][2]int64{}}
	for i := range s.Bins {
		if s.Bins[i] != 0 {
			w.Bins = append(w.Bins, [2]int64{int64(i), s.Bins[i]})
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the sparse form written by MarshalJSON.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var w sketchJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*s = Sketch{Count: w.Count, Min: w.Min, Max: w.Max}
	for _, b := range w.Bins {
		if b[0] < 0 || b[0] >= int64(SketchBins) {
			return fmt.Errorf("sketch: bin index %d out of range [0,%d)", b[0], SketchBins)
		}
		s.Bins[b[0]] = b[1]
	}
	return nil
}

// Summary renders the canonical one-line digest used by reports:
// count, min/p50/p90/p99/max. Durations are virtual seconds.
func (s *Sketch) Summary() string {
	if s.Count == 0 {
		return "empty"
	}
	return fmt.Sprintf("n=%d min=%.6g p50=%.6g p90=%.6g p99=%.6g max=%.6g",
		s.Count, s.Min, s.Quantile(0.5), s.Quantile(0.9), s.Quantile(0.99), s.Max)
}

// ExactQuantile is the reference the sketch is tested against: the same
// rank convention (1-based ceil(q*n) order statistic) computed from the raw
// values. Exported for reuse by stats' exact mode and by tests.
func ExactQuantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// WriteSketchText renders a labeled multi-line view of one or more named
// sketches, aligned for terminal output.
func WriteSketchText(w *strings.Builder, name string, s *Sketch) {
	fmt.Fprintf(w, "%-12s %s\n", name, s.Summary())
}
