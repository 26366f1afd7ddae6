// Package forkjoin is the repository's one fork-join helper: a binary-split
// parallel loop over an index range. The machine core's setup and teardown
// passes, the trace sinks' snapshots and the metrics merge tree all run on
// it, each choosing the grain that keeps its own fan-out.
package forkjoin

import "sync"

// For runs fn over disjoint subranges tiling [0, n), splitting binary-tree
// style until ranges fall to grain or below, and returns when all of [0, n)
// has been processed. fn must not depend on subrange order. With n <= grain
// it runs inline as the single call fn(0, n).
func For(n, grain int, fn func(lo, hi int)) {
	if n <= grain {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	var split func(lo, hi int)
	split = func(lo, hi int) {
		for hi-lo > grain {
			mid := int(uint(lo+hi) >> 1)
			wg.Add(1)
			go func(l, h int) {
				defer wg.Done()
				split(l, h)
			}(mid, hi)
			hi = mid
		}
		fn(lo, hi)
	}
	split(0, n)
	wg.Wait()
}
