package machine

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file holds the machine core's parallel setup/teardown machinery: the
// binary spawn/fold trees that replace the serial O(P) loops Run used to
// perform (proc init, fault pre-scan, goroutine spawn, drain walk, stats
// fold), following Hanlon & Hollis, "Fast Distributed Process Creation" —
// a spawner that creates two sub-spawners reaches P leaves in O(log P)
// sequential steps instead of O(P). The loops run on forkjoin.For; the
// spawn tree, whose leaves outlive it, is treeSpawn below.
//
// Every tree produces results byte-identical to the serial loops it
// replaced: the work items are index-addressed (arena[i], stats.Procs[i]),
// so the split order cannot change any output, and the one aggregation that
// is order-sensitive (the drain report) sorts its collected pairs exactly
// as the serial walk did. treeSpawn takes its grain as an argument so
// treecore_test.go can check "every index exactly once" at grains small
// enough to fork on tiny ranges; production passes the constants below.

const (
	// initGrain is the subrange width below which setup/teardown passes
	// (proc init, fault pre-scan, stats fold, drain walk) run serially:
	// below it the per-goroutine cost outweighs the memory-bound loop body.
	initGrain = 8192
	// spawnGrain is the number of leaf goroutines one leaf spawner creates
	// serially; interior spawners fork a sub-spawner per half until ranges
	// fall below it.
	spawnGrain = 1024
)

// treeSpawn starts one goroutine per index in [0, n) running leaf(i),
// forking interior spawner goroutines binary-tree style so the launch takes
// O(log(n/grain)) sequential steps on the critical path instead of an O(n)
// serial loop. It does not wait for the leaves (callers sequence on their
// own WaitGroup); with n <= grain it is the seed spawn loop.
//
// Leaves claim their index from a counter shared by the run, so every leaf
// is started as the same no-argument closure, which a go statement passes
// through without wrapping: no leaf has a heap object of its own. Only the
// O(n/grain) interior spawners carry a range. Each index is claimed by
// exactly one leaf, in host order; callers address their work by the index,
// so which goroutine runs it is invisible.
func treeSpawn(n, grain int, leaf func(i int)) {
	var next atomic.Int64
	start := func() { leaf(int(next.Add(1) - 1)) }
	if n <= grain {
		for i := 0; i < n; i++ {
			go start()
		}
		return
	}
	var spawn func(lo, hi int)
	spawn = func(lo, hi int) {
		for hi-lo > grain {
			mid := int(uint(lo+hi) >> 1)
			go spawn(mid, hi)
			hi = mid
		}
		for i := lo; i < hi; i++ {
			go start()
		}
	}
	spawn(0, n)
}

// panicRecorder collects per-processor panics during a run. The healthy
// path is allocation-free and O(1): engines call capture (which does
// nothing when recover returns nil), and failed() answers from the atomic
// count without touching memory proportional to P — replacing the O(P)
// []any slice plus post-run scan the seed Run allocated even for clean
// runs.
type panicRecorder struct {
	count atomic.Int64
	mu    sync.Mutex
	procs []ProcPanic
}

// capture records the in-flight panic of processor id, if any. It must be
// invoked directly by a deferred call (recover only intercepts a panic when
// called directly from the deferred function).
func (r *panicRecorder) capture(id int) {
	if v := recover(); v != nil {
		r.record(id, v)
	}
}

func (r *panicRecorder) record(id int, v any) {
	r.mu.Lock()
	r.procs = append(r.procs, ProcPanic{Proc: id, Value: v})
	r.mu.Unlock()
	r.count.Add(1)
}

// failed returns every recorded panic in ascending processor order, or nil
// after a healthy run. Callers invoke it only after the engine's run has
// returned, so no capture is concurrent.
func (r *panicRecorder) failed() []ProcPanic {
	if r.count.Load() == 0 {
		return nil
	}
	out := r.procs
	sort.Slice(out, func(i, j int) bool { return out[i].Proc < out[j].Proc })
	return out
}
