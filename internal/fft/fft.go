// Package fft provides the numerical kernels of the sensor applications:
// an iterative radix-2 complex FFT, batched row FFTs, and magnitude
// histograms. Values are really computed (so results can be verified across
// task mappings); cost constants let callers charge the matching virtual
// time to the simulated machine.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// Flops returns the standard operation count of one radix-2 FFT of length n:
// 5 n log2 n real floating point operations.
func Flops(n int) float64 {
	if n <= 1 {
		return 0
	}
	return 5 * float64(n) * math.Log2(float64(n))
}

// plan is the length- and direction-dependent part of a radix-2 FFT: the
// bit-reversal swaps and, per butterfly stage, the twiddle factors
// w_k = wbase^k built by the same w *= wbase recurrence an unplanned loop
// runs, so a planned transform is bit-identical to one that recomputes them.
type plan struct {
	swaps    [][2]int32     // index pairs i < j exchanged by the bit reversal
	twiddles [][]complex128 // stage s (span 2<<s): the 1<<s factors w_0..w_{half-1}
}

// plans caches one plan per (direction, log2 length), built on first use:
// O(log n) allocations per process, not per call.
var plans [2][bits.UintSize]struct {
	once sync.Once
	p    *plan
}

// planFor returns the cached plan for a length-n transform; n must be a
// power of two.
func planFor(n int, inverse bool) *plan {
	dir := 0
	if inverse {
		dir = 1
	}
	e := &plans[dir][bits.Len(uint(n))-1]
	e.once.Do(func() { e.p = newPlan(n, inverse) })
	return e.p
}

func newPlan(n int, inverse bool) *plan {
	pl := &plan{}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			pl.swaps = append(pl.swaps, [2]int32{int32(i), int32(j)})
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		wbase := cmplx.Exp(complex(0, sign*2*math.Pi/float64(size)))
		tw := make([]complex128, size/2)
		w := complex(1, 0)
		for k := range tw {
			tw[k] = w
			w *= wbase
		}
		pl.twiddles = append(pl.twiddles, tw)
	}
	return pl
}

// apply transforms x, whose length is the plan's, in place.
func (pl *plan) apply(x []complex128, inverse bool) {
	for _, s := range pl.swaps {
		x[s[0]], x[s[1]] = x[s[1]], x[s[0]]
	}
	for _, tw := range pl.twiddles {
		half := len(tw)
		// A stage's butterflies are independent. In the short early stages a
		// block is one or two butterflies, so those run twiddle-major.
		if half < 4 {
			for k, w := range tw {
				for i := k; i+half < len(x); i += 2 * half {
					a := x[i]
					b := x[i+half] * w
					x[i] = a + b
					x[i+half] = a - b
				}
			}
			continue
		}
		for start := 0; start < len(x); start += 2 * half {
			lo, hi := x[start:start+half], x[start+half:start+2*half]
			_, _ = lo[len(tw)-1], hi[len(tw)-1] // one bounds check per block, none per butterfly
			for k, w := range tw {
				a := lo[k]
				b := hi[k] * w
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
	if inverse {
		inv := complex(1/float64(len(x)), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

func checkLen(n int) {
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
}

// InPlace performs an in-place decimation-in-time radix-2 FFT of x, whose
// length must be a power of two. inverse selects the inverse transform
// (including the 1/n scaling).
func InPlace(x []complex128, inverse bool) {
	if len(x) == 0 {
		return
	}
	checkLen(len(x))
	planFor(len(x), inverse).apply(x, inverse)
}

// Rows applies a forward FFT to each length-w row of a row-major matrix
// stored in data (len must be a multiple of w) and returns the total flop
// count for cost accounting.
func Rows(data []complex128, w int) float64 {
	if w <= 0 || len(data)%w != 0 {
		panic(fmt.Sprintf("fft: Rows with width %d on %d elements", w, len(data)))
	}
	return rows(data, w, false)
}

// rows transforms each length-w row of data with one plan lookup and
// returns the flop count.
func rows(data []complex128, w int, inverse bool) float64 {
	if len(data) == 0 {
		return 0
	}
	checkLen(w)
	pl := planFor(w, inverse)
	for r := 0; r+w <= len(data); r += w {
		pl.apply(data[r:r+w], inverse)
	}
	return float64(len(data)/w) * Flops(w)
}

// HistFlops is the modeled per-element cost of histogramming (magnitude,
// compare, increment).
const HistFlops = 8

// Histogram bins the magnitudes of data into bins buckets over [0, max);
// values >= max land in the last bucket. It returns the counts and the flop
// cost.
func Histogram(data []complex128, bins int, max float64) ([]int64, float64) {
	if bins <= 0 || max <= 0 {
		panic(fmt.Sprintf("fft: Histogram with bins=%d max=%g", bins, max))
	}
	counts := make([]int64, bins)
	scale := float64(bins) / max
	for _, v := range data {
		m := cmplx.Abs(v)
		b := int(m * scale)
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	return counts, float64(len(data)) * HistFlops
}

// ScaleFlops is the per-element cost of the radar scaling step.
const ScaleFlops = 2

// Scale multiplies every element by s and returns the flop cost.
func Scale(data []complex128, s float64) float64 {
	c := complex(s, 0)
	for i := range data {
		data[i] *= c
	}
	return float64(len(data)) * ScaleFlops
}

// ThresholdFlops is the per-element cost of the radar thresholding step.
const ThresholdFlops = 3

// Threshold zeroes elements with magnitude below t, returning the number of
// surviving elements and the flop cost.
func Threshold(data []complex128, t float64) (kept int, flops float64) {
	t2 := t * t
	for i, v := range data {
		re, im := real(v), imag(v)
		if re*re+im*im < t2 {
			data[i] = 0
		} else {
			kept++
		}
	}
	return kept, float64(len(data)) * ThresholdFlops
}
