// Package sweep is the host-parallel simulation-campaign driver: a bounded
// worker pool that runs independent jobs — typically machine.Run simulations
// — concurrently on the host, and returns their results in deterministic
// submission order.
//
// The simulator's virtual times are deterministic regardless of host
// scheduling (every processor goroutine owns a private clock and messages
// are matched per ordered pair), so independent simulations may run
// concurrently without changing any simulated-time output: a campaign run
// under sweep.Map produces byte-identical results to the same jobs run in a
// serial loop. Only host wall-clock changes.
//
// Each job's panic is captured and returned as that job's error, so one bad
// configuration (an infeasible mapping, a degenerate distribution) fails
// its own result slot rather than the whole campaign.
package sweep

import (
	"fmt"
	"runtime"
)

// Result holds one job's outcome. Exactly one of Value/Err is meaningful:
// Err is non-nil when the job returned an error or panicked.
type Result[T any] struct {
	Value T
	Err   error
}

// PanicError wraps a panic recovered from a campaign job.
type PanicError struct {
	// Index is the job's submission index.
	Index int
	// Value is the recovered panic value.
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: job %d panicked: %v", e.Index, e.Value)
}

// Workers resolves a -j style worker-count request: j <= 0 means "one
// worker per available CPU" (GOMAXPROCS), any positive j is taken as-is.
func Workers(j int) int {
	if j <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return j
}

// Map runs fn(0..n-1) on a pool of at most workers goroutines and returns
// the n results indexed by submission order. workers <= 0 defaults to
// GOMAXPROCS. The call blocks until every job has finished; job panics are
// captured into the corresponding Result as a *PanicError.
// When a campaign Monitor is active (see Activate), the run is reported
// under the generic "(campaign)" name; use MapNamed to label it.
func Map[T any](workers, n int, fn func(i int) (T, error)) []Result[T] {
	return MapNamed("", workers, n, fn)
}

// runJob executes one job with panic capture. Separate from the worker loop
// so the deferred recover scopes to a single job.
func runJob[T any](i int, fn func(i int) (T, error), out *Result[T]) {
	defer func() {
		if r := recover(); r != nil {
			out.Err = &PanicError{Index: i, Value: r}
		}
	}()
	out.Value, out.Err = fn(i)
}
