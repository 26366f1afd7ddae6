package forkjoin

import (
	"sync/atomic"
	"testing"
)

// TestForVisitsEveryIndexOnce is For's contract: its subranges tile [0, n)
// exactly once and none is wider than the grain, at every grain — the
// property that makes index-addressed loop bodies independent of how the
// tree split.
func TestForVisitsEveryIndexOnce(t *testing.T) {
	for grain := 1; grain <= 8; grain++ {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 64, 100, 257} {
			visits := make([]atomic.Int32, n)
			For(n, grain, func(lo, hi int) {
				if hi-lo > grain {
					t.Errorf("For(%d, %d): subrange [%d,%d) wider than the grain", n, grain, lo, hi)
				}
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
				}
			})
			for i := range visits {
				if got := visits[i].Load(); got != 1 {
					t.Fatalf("n=%d grain=%d: index %d visited %d times, want once", n, grain, i, got)
				}
			}
		}
	}
}
