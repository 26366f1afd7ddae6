package mapping

import (
	"fmt"

	"fxpar/internal/machine"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
)

// Ident is a streaming program's content identity: what its cost tables and
// cell skeletons are filed under. It is split out of Cells so that code which
// only needs a key (the serving layer resolves one per request) builds no
// closures.
type Ident struct {
	// App names the program ("ffthist", "radar", "stereo").
	App string
	// Params canonically renders the parameters that affect per-set stage
	// times (data sizes, kernel constants — not the stream length).
	Params string
}

// Spec returns the content-keyed spec the program's cost tables for a
// maxP-processor machine are memoized under. The stream length is
// deliberately absent, so campaigns differing only in it share one build; a
// replay-first build at a cost model other than the replay base carries the
// base in its key (see ReplayOptions.SpecSuffix).
func (id Ident) Spec(cost sim.CostModel, maxP int, stages []string, r *ReplayOptions) TableSpec {
	return TableSpec{App: id.App, Params: id.Params + r.SpecSuffix(cost), P: maxP, Stages: stages, Cost: cost}
}

// Cells describes how to measure one program's cost tables by simulation: a
// program is a chain of data-parallel stages, and a table cell is one run of
// one stage — or of the whole program, data parallel — for a single data set
// on a fresh machine.
type Cells struct {
	Ident
	// Stage runs stage s in isolation on m and returns the virtual makespan.
	Stage func(m *machine.Machine, s int) float64
	// DP runs the whole program data parallel on all of m for one data set
	// and returns the per-set latency.
	DP func(m *machine.Machine) float64
}

// cell runs one table cell — stage s, or the data-parallel program when
// s < 0 — on a fresh p-processor machine and returns its value. With capture
// set the run is traced into a skeleton sink and the folded communication
// skeleton is returned alongside: the live and the replay-capture
// measurement are the same simulation, differing by one tracer.
func (c Cells) cell(cost sim.CostModel, s, p int, eng machine.Engine, capture bool) (*skeleton.Skeleton, float64, error) {
	m := machine.New(p, cost)
	m.SetEngine(eng)
	var sink *skeleton.Sink
	if capture {
		sink = skeleton.NewSink(cost, "")
		m.SetTracer(sink)
	}
	var v float64
	if s < 0 {
		v = c.DP(m)
	} else {
		v = c.Stage(m, s)
	}
	if sink == nil {
		return nil, v, nil
	}
	sk, err := sink.Skeleton()
	return sk, v, err
}

// Measure builds the mapper's cost model by simulating every stage at every
// candidate processor count (and the data-parallel whole program, on no more
// processors than the narrowest stage cap); closed supplies what is not
// measured — machine size, stage names, parallelism caps and the
// transfer-cost function. The
// campaign fans out over opt.Workers host workers and is memoized under the
// content key of Spec (see BuildTables), so repeated builds, in-process or
// across invocations with opt.CacheDir set, skip the simulations entirely.
// The returned source says where the tables came from.
//
// With opt.Replay set, each cell is answered replay-first from the skeleton
// store: a hit costs one analytic DAG evaluation instead of a simulation,
// and a miss runs one live traced simulation that populates the store for
// every build after it. Data-parallel cells are stream latencies; Eval keeps
// the ones that are not also DAG makespans on the live path by itself.
func (c Cells) Measure(cost sim.CostModel, closed Model, opt BuildOptions) (Model, TableSource, error) {
	spec := c.Spec(cost, closed.P, closed.StageNames, opt.Replay)
	measure := func(s, p int) float64 {
		key := skeleton.StoreKey{App: c.App + ".dp", Params: c.Params, Mapping: "dp", P: p}
		if s >= 0 {
			key = skeleton.StoreKey{App: c.App + ".stage", Params: fmt.Sprintf("%s,s=%d", c.Params, s), Mapping: "isolated", P: p}
		}
		procs := widest(closed.Caps, s, p)
		if v, ok := opt.Replay.Eval(key, cost, func(base sim.CostModel) (*skeleton.Skeleton, float64, error) {
			return c.cell(base, s, procs, opt.Engine, true)
		}); ok {
			return v
		}
		_, v, _ := c.cell(cost, s, procs, opt.Engine, false)
		return v
	}
	tab, src, err := BuildTables(spec, opt, measure, func(p int) float64 { return measure(-1, p) })
	if err != nil {
		return Model{}, src, err
	}
	return tab.Model(spec, closed.P, closed.Caps, closed.Xfer), src, nil
}
