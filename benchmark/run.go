package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// nominalSeconds is the run length the rep counts below are fixed for: the
// run_seconds of BENCHMARK.json. --seconds scales the counts in proportion,
// never below a case's floor; nothing in a run looks at the clock to decide
// how much to measure.
const nominalSeconds = 30

// env is one run's configuration.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	short   bool // go test -short: one rep, reduced sizes
	gold    *goldens
	tmp     string // scratch directory inside the checkout, removed at exit
}

// benchCase is one timed public entry point of a workload. A rep is one
// call of run on generated inputs; it returns an error when the rep's
// virtual-time output differs from its golden.
type benchCase struct {
	name       string // "op" or "alt"
	reps       int    // untraced reps at nominalSeconds
	floor      int    // never fewer than this
	tracedReps int    // reps under the span recorder in a traced run
	run        func(rec *recorder, parent int) error
}

// repCount scales a rep count fixed for nominalSeconds to the run's
// --seconds, never below floor.
func (e *env) repCount(reps, floor int) int {
	if e.short {
		return 1
	}
	return max(int(math.Round(float64(reps)*e.seconds/nominalSeconds)), floor)
}

// caseSamples are the host milliseconds of one case's reps.
type caseSamples struct {
	Untraced []float64 `json:"untraced_ms,omitempty"`
	Traced   []float64 `json:"traced_ms,omitempty"`
}

// runResult is what a workload's measured phase produced.
type runResult struct {
	setupS float64
	cases  map[string]*caseSamples
	// opMS and altMS are the end-to-end numbers of the two cases: the lower
	// quartile of the untraced samples unless the workload says otherwise.
	opMS, altMS float64
	// allocBytes and mallocs are runtime.MemStats deltas per op rep.
	allocBytes, mallocs float64
	attempted, failed   int
	failures            []string
	// overheadX is traced / untraced time of the overhead case (traced run).
	overheadX float64
	// extra carries per-layer numbers a workload measures itself.
	extra map[string]float64
}

func (r *runResult) fail(err error) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
}

// interleave orders counts[i] occurrences of each i so that every i is
// spread evenly over the whole sequence (0, 1, 0, 1, ... for equal counts):
// a slow minute on the host then lands on every case and not on whichever
// ran last.
func interleave(counts []int) []int {
	type slot struct {
		i   int
		pos float64
	}
	var slots []slot
	for i, n := range counts {
		for k := 0; k < n; k++ {
			slots = append(slots, slot{i, (float64(k) + 0.5) / float64(n)})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].pos < slots[b].pos })
	order := make([]int, len(slots))
	for n, sl := range slots {
		order[n] = sl.i
	}
	return order
}

// runCases times the cases of a rep-based workload. An untraced run times
// every case untraced. A traced run times tracedReps of every case under
// the recorder and, for the overhead case, as many untraced reps beside
// them.
func runCases(e *env, rec *recorder, cases []benchCase, overheadCase string) *runResult {
	res := &runResult{cases: map[string]*caseSamples{}}
	type timed struct {
		c      benchCase
		traced bool
	}
	var plan []timed
	var counts []int
	for _, c := range cases {
		res.cases[c.name] = &caseSamples{}
		switch {
		case !e.traced:
			plan, counts = append(plan, timed{c, false}), append(counts, e.repCount(c.reps, c.floor))
		case c.name == overheadCase:
			plan, counts = append(plan, timed{c, false}, timed{c, true}), append(counts, c.tracedReps, c.tracedReps)
		default:
			plan, counts = append(plan, timed{c, true}), append(counts, c.tracedReps)
		}
	}
	if e.short {
		for i := range counts {
			counts[i] = 1
		}
	}

	var before, after runtime.MemStats
	var allocBytes, mallocs uint64
	opReps := 0
	res.setupS = time.Since(processStart).Seconds()
	for n, i := range interleave(counts) {
		c, traced := plan[i].c, plan[i].traced
		meter := !e.traced && c.name == "op"
		if meter {
			runtime.ReadMemStats(&before)
		}
		ms, err := timeRep(c, rec, traced, fmt.Sprintf("%s#%d", c.name, n))
		if meter {
			runtime.ReadMemStats(&after)
			allocBytes += after.TotalAlloc - before.TotalAlloc
			mallocs += after.Mallocs - before.Mallocs
			opReps++
		}
		res.attempted++
		if err != nil {
			res.fail(fmt.Errorf("%s rep %d: %w", c.name, n, err))
		}
		if traced {
			res.cases[c.name].Traced = append(res.cases[c.name].Traced, ms)
		} else {
			res.cases[c.name].Untraced = append(res.cases[c.name].Untraced, ms)
		}
	}
	if opReps > 0 {
		res.allocBytes = float64(allocBytes) / float64(opReps)
		res.mallocs = float64(mallocs) / float64(opReps)
	}
	if e.traced {
		oc := res.cases[overheadCase]
		res.overheadX = lowerQuartile(oc.Traced) / lowerQuartile(oc.Untraced)
	} else {
		res.opMS, res.altMS = lowerQuartile(res.cases["op"].Untraced), lowerQuartile(res.cases["alt"].Untraced)
	}
	return res
}

// timeRep runs one rep and returns its host milliseconds. A panic inside
// the program under test is a failed operation, not a crashed benchmark.
func timeRep(c benchCase, rec *recorder, traced bool, rep string) (ms float64, err error) {
	if !traced {
		rec = nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	start := time.Now()
	id := rec.begin(c.name, -1, rep)
	err = c.run(rec, id)
	rec.end(id)
	return float64(time.Since(start)) / 1e6, err
}

// newTmp makes the run's scratch directory under .bench_build in the
// checkout, so nothing is written outside it.
func newTmp() (string, error) {
	base := ".bench_build/tmp"
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
