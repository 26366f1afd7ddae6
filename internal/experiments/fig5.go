package experiments

import (
	"fmt"
	"io"
	"strings"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/sweep"
)

// Fig5Row is one mapping of Figure 5: the latency-optimal mapping of the
// 512x512 FFT-Hist program under one throughput constraint.
type Fig5Row struct {
	Constraint string  // human-readable constraint
	Goal       float64 // sets/s (0 = none)
	Choice     mapping.Choice
	Throughput float64 // measured
	Latency    float64 // measured
	// Pipeline is the best single-module pipeline meeting the same goal
	// (the family shown in the paper's middle diagram), with its measured
	// numbers — zero value if no pipeline meets the goal.
	Pipeline           mapping.Choice
	PipelineThroughput float64
	PipelineLatency    float64
}

// Fig5Config controls scale.
type Fig5Config struct {
	Procs int
	N     int
	Sets  int
	// Workers bounds host parallelism (0 = GOMAXPROCS); CacheDir persists
	// the measured cost tables; Engine selects the machine execution engine
	// (nil: package default). None of them changes any simulated number.
	Workers  int
	CacheDir string
	Engine   machine.Engine
	// Faults injects a deterministic chaos plan into the measured mapping
	// runs (nil: none); the cost tables behind the optimizer stay healthy.
	Faults machine.FaultPlan
	// Replay, when non-nil, answers cost-table cells from the skeleton
	// store by analytic re-cost instead of live simulation (see
	// mapping.ReplayOptions).
	Replay *mapping.ReplayOptions
}

// DefaultFig5 matches the paper: 512x512 FFT-Hist on 64 processors.
func DefaultFig5() Fig5Config { return Fig5Config{Procs: 64, N: 512, Sets: 8} }

// QuickFig5 is a reduced variant.
func QuickFig5() Fig5Config { return Fig5Config{Procs: 16, N: 64, Sets: 6} }

// Fig5 regenerates Figure 5: the best mapping under no constraint, and
// under throughput constraints matching the paper's ratios (the paper used
// goals of 2 and 4 sets/s against a 1.99 sets/s data-parallel baseline).
//
// The cost tables come from memoized stage simulations (see
// mapping.BuildTables); the three constraint cases then run concurrently.
// The returned error is a table-construction failure — individual
// infeasible constraints are reported in their row instead.
func Fig5(cfg Fig5Config) ([]Fig5Row, error) {
	cost := sim.Paragon()
	appCfg := ffthist.Config{N: cfg.N, Sets: cfg.Sets, Bins: 64}
	opt := mapping.BuildOptions{Workers: cfg.Workers, CacheDir: cfg.CacheDir, Engine: cfg.Engine, Replay: cfg.Replay}
	model, _, err := ffthist.MeasuredModel(cost, appCfg, cfg.Procs, opt)
	if err != nil {
		return nil, err
	}
	dpThroughput := 1 / model.DPT[cfg.Procs]

	cases := []struct {
		label string
		goal  float64
	}{
		{"none (minimize latency)", 0},
		{"throughput >= 1.005x DP", 1.005 * dpThroughput}, // paper: goal 2 vs DP 1.99
		{"throughput >= 2.01x DP", 2.01 * dpThroughput},   // paper: goal 4 vs DP 1.99
	}
	res := sweep.MapNamed("fig5", cfg.Workers, len(cases), func(i int) (Fig5Row, error) {
		c := cases[i]
		row := Fig5Row{Constraint: c.label, Goal: c.goal}
		choice, err := mapping.Optimize(model, c.goal)
		if err != nil {
			row.Constraint += " [infeasible]"
			return row, nil
		}
		row.Choice = choice
		r := ffthist.Run(newMachine(cfg.Procs, cost, cfg.Engine, cfg.Faults), appCfg, choice.Mapping)
		row.Throughput = r.Stream.Throughput
		row.Latency = r.Stream.Latency
		if pc, err := mapping.OptimizePipeline(model, c.goal); err == nil {
			row.Pipeline = pc
			pres := ffthist.Run(newMachine(cfg.Procs, cost, cfg.Engine, cfg.Faults), appCfg, pc.Mapping)
			row.PipelineThroughput = pres.Stream.Throughput
			row.PipelineLatency = pres.Stream.Latency
		}
		return row, nil
	})
	rows := make([]Fig5Row, len(res))
	for i, r := range res {
		if r.Err != nil {
			return nil, r.Err
		}
		rows[i] = r.Value
	}
	return rows, nil
}

// PrintFig5 writes the mappings with a processor-allocation diagram in the
// spirit of Figure 5.
func PrintFig5(w io.Writer, rows []Fig5Row, cfg Fig5Config) {
	fmt.Fprintf(w, "Figure 5: Mappings of a %dx%d FFT-Hist program on %d simulated nodes\n\n",
		cfg.N, cfg.N, cfg.Procs)
	for _, r := range rows {
		fmt.Fprintf(w, "Constraint: %s\n", r.Constraint)
		if r.Choice.Stages == nil {
			fmt.Fprintln(w)
			continue
		}
		fmt.Fprintf(w, "  chosen mapping: %s\n", r.Choice)
		fmt.Fprintf(w, "  measured: %.3f sets/s, latency %.4f s\n", r.Throughput, r.Latency)
		fmt.Fprintf(w, "  processor allocation:\n")
		stageNames := []string{"colffts", "rowffts", "hist"}
		for m := 0; m < r.Choice.Modules; m++ {
			// Wide modules (the ones absorbing P mod r leftover processors)
			// have their own stage widths.
			procs := r.Choice.ModuleStages(m)
			if len(procs) == 1 {
				fmt.Fprintf(w, "    module %d: [%s] all stages x %d procs\n",
					m+1, strings.Repeat("#", min(procs[0], 64)), procs[0])
				continue
			}
			for s, q := range procs {
				fmt.Fprintf(w, "    module %d %-8s: [%s] %d procs\n",
					m+1, stageNames[s], strings.Repeat("#", min(q, 64)), q)
			}
		}
		if r.Pipeline.Stages != nil {
			fmt.Fprintf(w, "  best single pipeline for comparison: %s -> %.3f sets/s, latency %.4f s\n",
				r.Pipeline, r.PipelineThroughput, r.PipelineLatency)
		}
		fmt.Fprintln(w)
	}
}
