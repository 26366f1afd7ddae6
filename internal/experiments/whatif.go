package experiments

import (
	"fmt"
	"io"
	"math"

	"fxpar/internal/skeleton"
)

// WhatIfConfig scopes a skeleton-backed what-if campaign: the scenario is
// captured once as a communication skeleton, then re-costed analytically
// across a grid of machine-parameter scalings and per-span virtual speedups.
// One grid point per parameter is cross-checked against a full
// re-simulation. Everything except the host-time throughput fields is
// deterministic, so the report is a committable benchmark artifact.
type WhatIfConfig struct {
	Scenario
	// Factors are the virtual span-speedup factors of the what-if table.
	Factors []float64
	// Scales are the alpha/beta/flop-rate multipliers of the re-cost grid.
	Scales []float64
}

// DefaultWhatIf captures the default scenario.
func DefaultWhatIf() WhatIfConfig {
	return WhatIfConfig{
		Scenario: defaultScenario,
		Factors:  []float64{1.25, 1.5, 2, 4},
		Scales:   []float64{0.25, 0.5, 1, 2, 4},
	}
}

// QuickWhatIf is a reduced variant.
func QuickWhatIf() WhatIfConfig {
	cfg := DefaultWhatIf()
	cfg.Procs, cfg.N, cfg.Sets = 8, 32, 4
	return cfg
}

// WhatIfCheck is one grid point cross-checked against a full re-simulation
// at the same parameters. RelErr is deterministic: both sides are virtual
// times.
type WhatIfCheck struct {
	crossCheck
	RelErr float64
}

// WhatIfBench is the campaign report. All fields except the Host* block are
// deterministic.
type WhatIfBench struct {
	skeletonHead
	Factors []float64
	Spans   []skeleton.WhatIfRow
	Grid    []GridPoint
	Checks  []WhatIfCheck
	// Host-time throughput of the analytic re-coster vs the full simulator,
	// the payoff measurement of skeleton capture. Host-dependent: zeroed
	// before the golden comparison.
	HostRecostsPerSecond float64
	HostSimsPerSecond    float64
	HostSeconds          float64
}

var whatIfParams = []string{"alpha", "beta", "floprate"}

// WhatIf runs the campaign: capture once, re-cost everywhere.
func WhatIf(cfg WhatIfConfig) (*WhatIfBench, error) {
	sk, err := cfg.capture(nil)
	if err != nil {
		return nil, err
	}
	rep := &WhatIfBench{}
	if rep.skeletonHead, err = cfg.head("whatif-ffthist", sk); err != nil {
		return nil, err
	}

	// Ranked what-if table.
	wi, err := sk.WhatIf(cfg.Factors)
	if err != nil {
		return nil, err
	}
	rep.Factors, rep.Spans = wi.Factors, wi.Rows

	rep.Grid, err = cfg.recostGrid("whatif-grid", whatIfParams, cfg.Scales,
		func() (*skeleton.Skeleton, error) { return sk, nil })
	if err != nil {
		return nil, err
	}

	// Cross-checks: each parameter's largest scale re-simulated in full.
	// RelErr is rounding-order noise for healthy runs.
	for i := len(cfg.Scales) - 1; i >= 0 && i < len(rep.Grid); i += len(cfg.Scales) {
		chk := WhatIfCheck{crossCheck: cfg.resimulate(rep.Grid[i])}
		if chk.Recost != chk.Sim {
			chk.RelErr = math.Abs(chk.Recost-chk.Sim) / math.Max(math.Abs(chk.Recost), math.Abs(chk.Sim))
		}
		rep.Checks = append(rep.Checks, chk)
	}

	rep.HostRecostsPerSecond, rep.HostSimsPerSecond, rep.HostSeconds, err = cfg.hostThroughput(sk, whatIfParams)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// WriteText prints the campaign report; the layout is deterministic apart
// from the final host-throughput line.
func (r *WhatIfBench) WriteText(w io.Writer) {
	r.skeletonHead.writeText(w, "re-cost")
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
