package main

import (
	"math"
	"sort"
)

// minOf returns the smallest sample.
func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// lowerQuartile is the end-to-end statistic of every timed case: the value a
// quarter of the way up the sorted samples (linear interpolation between
// ranks, so two samples give min + (max-min)/4). Contention on a shared
// host only adds time, which argues for the minimum; but the fastest of N
// reps is an extreme value and, measured on the reference host, moved 5-7%
// between back-to-back processes where the lower quartile moved 2-4%.
func lowerQuartile(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := 0.25 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first, second and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method), so
// a spread computed here is the number the acceptance check computes. One
// sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the second quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile range as a share of the median: the noise
// figure every bound in BENCHMARK.json is compared against.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(1, min(rank, len(s)))-1]
}
