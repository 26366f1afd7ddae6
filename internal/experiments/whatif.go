package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
	"fxpar/internal/sweep"
	"fxpar/internal/trace"
)

// WhatIfConfig scopes a skeleton-backed what-if campaign: one FFT-Hist
// pipeline run is captured as a communication skeleton, then re-costed
// analytically across a grid of machine-parameter scalings and per-span
// virtual speedups. A handful of grid points are cross-checked against full
// re-simulations. Everything except the host-time throughput fields is a
// pure function of (config minus Workers/Engine), so the report is a
// committable benchmark artifact.
type WhatIfConfig struct {
	Procs int
	N     int
	Sets  int
	// Factors are the virtual span-speedup factors of the what-if table.
	Factors []float64
	// Scales are the alpha/beta/flop-rate multipliers of the re-cost grid.
	Scales []float64
	// Workers bounds host parallelism (0 = GOMAXPROCS); Engine selects the
	// execution engine (nil: package default). Neither changes the report.
	Workers int
	Engine  machine.Engine
}

// DefaultWhatIf captures a 16-processor three-stage pipeline.
func DefaultWhatIf() WhatIfConfig {
	return WhatIfConfig{
		Procs:   16,
		N:       64,
		Sets:    6,
		Factors: []float64{1.25, 1.5, 2, 4},
		Scales:  []float64{0.25, 0.5, 1, 2, 4},
	}
}

// QuickWhatIf is a reduced variant.
func QuickWhatIf() WhatIfConfig {
	cfg := DefaultWhatIf()
	cfg.Procs, cfg.N, cfg.Sets = 8, 32, 4
	return cfg
}

// WhatIfGridPoint is one analytic re-cost under a scaled machine parameter.
type WhatIfGridPoint struct {
	Param    string // "alpha", "beta", "floprate"
	Scale    float64
	Makespan float64
}

// WhatIfCheck is one grid point cross-checked against a full re-simulation
// at the same parameters. RelErr is deterministic: both sides are virtual
// times.
type WhatIfCheck struct {
	Param  string
	Scale  float64
	Recost float64
	Sim    float64
	RelErr float64
}

// WhatIfSpanRow mirrors skeleton.WhatIfRow for the JSON artifact.
type WhatIfSpanRow struct {
	Label string
	Local float64
	Gains []float64
}

// WhatIfBench is the campaign report. All fields except the Host* block are
// deterministic.
type WhatIfBench struct {
	Name        string
	Procs       int
	N           int
	Sets        int
	SkeletonKey string
	SkeletonOps int
	// Baseline is the recorded makespan; IdentityExact records whether the
	// analytic re-cost at recorded parameters reproduced it bitwise (it
	// must — a false here is a determinism regression).
	Baseline      float64
	IdentityExact bool
	Factors       []float64
	Spans         []WhatIfSpanRow
	Grid          []WhatIfGridPoint
	Checks        []WhatIfCheck
	// Host-time throughput of the analytic re-coster vs the full simulator,
	// the payoff measurement of skeleton capture. Host-dependent: zeroed
	// before the golden comparison.
	HostRecostsPerSecond float64
	HostSimsPerSecond    float64
	HostSeconds          float64
}

// whatIfMapping reuses the chaos campaign's pipeline split so the two
// artifacts describe the same scenario shape.
func whatIfMapping(p int) ffthist.Mapping { return chaosMapping(p) }

// scaledCost returns the campaign cost model with one parameter scaled.
func scaledCost(param string, scale float64) sim.CostModel {
	c := sim.Paragon()
	switch param {
	case "alpha":
		c.Alpha *= scale
	case "beta":
		c.Beta *= scale
	case "floprate":
		c.FlopRate *= scale
	default:
		panic("experiments: unknown what-if parameter " + param)
	}
	return c
}

var whatIfParams = []string{"alpha", "beta", "floprate"}

// WhatIf runs the campaign: capture once, re-cost everywhere.
func WhatIf(cfg WhatIfConfig) (*WhatIfBench, error) {
	cost := sim.Paragon()
	appCfg := ffthist.Config{N: cfg.N, Sets: cfg.Sets, Bins: 64}
	mp := whatIfMapping(cfg.Procs)

	// Capture: one traced run, folded into a skeleton.
	col := &trace.Collector{}
	m := newMachine(cfg.Procs, cost, cfg.Engine, nil)
	m.SetTracer(col)
	ffthist.Run(m, appCfg, mp)
	sk, err := skeleton.FromEvents(cost, col.Events())
	if err != nil {
		return nil, err
	}
	key, err := sk.Key()
	if err != nil {
		return nil, err
	}

	rep := &WhatIfBench{
		Name: "whatif-ffthist", Procs: cfg.Procs, N: cfg.N, Sets: cfg.Sets,
		SkeletonKey: key, SkeletonOps: sk.Ops(), Baseline: sk.Makespan,
		Factors: append([]float64(nil), cfg.Factors...),
	}

	// Determinism check: re-cost at recorded parameters.
	identity, err := sk.Recost(skeleton.Params{})
	if err != nil {
		return nil, err
	}
	rep.IdentityExact = identity == sk.Makespan

	// Ranked what-if table.
	wi, err := sk.WhatIf(cfg.Factors)
	if err != nil {
		return nil, err
	}
	for _, row := range wi.Rows {
		rep.Spans = append(rep.Spans, WhatIfSpanRow{Label: row.Label, Local: row.Local,
			Gains: append([]float64(nil), row.Gains...)})
	}

	// Re-cost grid, fanned across host workers: param-major, scale-minor —
	// a deterministic order, so the artifact is stable for every -j.
	type cell struct {
		param string
		scale float64
	}
	var cells []cell
	for _, p := range whatIfParams {
		for _, s := range cfg.Scales {
			cells = append(cells, cell{p, s})
		}
	}
	grid := sweep.MapNamed("whatif-grid", cfg.Workers, len(cells), func(i int) (WhatIfGridPoint, error) {
		c := scaledCost(cells[i].param, cells[i].scale)
		mk, err := sk.Recost(skeleton.Params{Cost: &c})
		if err != nil {
			return WhatIfGridPoint{}, err
		}
		return WhatIfGridPoint{Param: cells[i].param, Scale: cells[i].scale, Makespan: mk}, nil
	})
	for _, r := range grid {
		if r.Err != nil {
			return nil, r.Err
		}
		rep.Grid = append(rep.Grid, r.Value)
	}

	// Cross-checks: one full re-simulation per parameter at the largest
	// non-identity scale. RelErr is rounding-order noise for healthy runs.
	checkScale := cfg.Scales[len(cfg.Scales)-1]
	for _, p := range whatIfParams {
		c := scaledCost(p, checkScale)
		re, err := sk.Recost(skeleton.Params{Cost: &c})
		if err != nil {
			return nil, err
		}
		res := ffthist.Run(newMachine(cfg.Procs, c, cfg.Engine, nil), appCfg, mp)
		simMk := res.Stats.MakespanTime()
		relErr := 0.0
		if re != simMk {
			relErr = math.Abs(re-simMk) / math.Max(math.Abs(re), math.Abs(simMk))
		}
		rep.Checks = append(rep.Checks, WhatIfCheck{Param: p, Scale: checkScale,
			Recost: re, Sim: simMk, RelErr: relErr})
	}

	// Host-time throughput: how many analytic re-costs vs full simulations
	// fit in a second. The re-coster's whole value proposition is this ratio.
	const recostReps, simReps = 64, 4
	t0 := time.Now()
	for i := 0; i < recostReps; i++ {
		c := scaledCost("alpha", 2)
		if _, err := sk.Recost(skeleton.Params{Cost: &c}); err != nil {
			return nil, err
		}
	}
	recostDur := time.Since(t0)
	t1 := time.Now()
	for i := 0; i < simReps; i++ {
		ffthist.Run(newMachine(cfg.Procs, cost, cfg.Engine, nil), appCfg, mp)
	}
	simDur := time.Since(t1)
	if recostDur > 0 {
		rep.HostRecostsPerSecond = recostReps / recostDur.Seconds()
	}
	if simDur > 0 {
		rep.HostSimsPerSecond = simReps / simDur.Seconds()
	}
	rep.HostSeconds = time.Since(t0).Seconds()
	return rep, nil
}

// WriteText prints the campaign report; the layout is deterministic apart
// from the final host-throughput line.
func (r *WhatIfBench) WriteText(w io.Writer) {
	fmt.Fprintf(w, "=== %s: P=%d N=%d Sets=%d ===\n", r.Name, r.Procs, r.N, r.Sets)
	fmt.Fprintf(w, "skeleton %s, %d ops, baseline makespan %.6f s\n", r.SkeletonKey, r.SkeletonOps, r.Baseline)
	if r.IdentityExact {
		fmt.Fprintf(w, "determinism: re-cost at recorded parameters reproduces the makespan exactly\n")
	} else {
		fmt.Fprintf(w, "determinism: VIOLATED — re-cost at recorded parameters deviates\n")
	}
	fmt.Fprintf(w, "\nranked virtual span speedups (makespan gain):\n")
	for _, s := range r.Spans {
		fmt.Fprintf(w, "  %-40s local %.6f s", s.Label, s.Local)
		for i, g := range s.Gains {
			fmt.Fprintf(w, "  x%g: %.6f", r.Factors[i], g)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nre-cost grid (scaled machine parameters):\n")
	for _, g := range r.Grid {
		fmt.Fprintf(w, "  %-8s x%-6g -> %.6f s\n", g.Param, g.Scale, g.Makespan)
	}
	fmt.Fprintf(w, "\nfull-simulation cross-checks:\n")
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  %-8s x%-6g recost %.6f s, sim %.6f s, rel err %.3g\n",
			c.Param, c.Scale, c.Recost, c.Sim, c.RelErr)
	}
	fmt.Fprintf(w, "\nhost throughput: %.0f re-costs/s vs %.1f full sims/s (%.2fs total)\n",
		r.HostRecostsPerSecond, r.HostSimsPerSecond, r.HostSeconds)
}
