package radar

import (
	"fmt"

	"fxpar/internal/apps/streams"
	"fxpar/internal/dist"
	"fxpar/internal/fx"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/stats"
)

// stageBody returns the program of stage s of the radar pipeline run in
// isolation for one data set: the unit of both plain measurement and traced
// capture.
func stageBody(cfg Config, s int) func(*fx.Proc) {
	return func(px *fx.Proc) {
		g := px.Group()
		switch s {
		case 0: // input: serial sensor read + scatter of the gate-major matrix
			a0 := dist.New[complex128](px.Proc, dist.RowBlock2D(g, cfg.Gates, cfg.Rows))
			inputSet(px, a0, streams.Frame(a0, cfg.charge), cfg, 0)
		case 1: // fft over the corner-turned rows
			a1 := dist.New[complex128](px.Proc, dist.RowBlock2D(g, cfg.Rows, cfg.Gates))
			fftRows(px, a1, cfg.charge)
		case 2: // scale
			a1 := dist.New[complex128](px.Proc, dist.RowBlock2D(g, cfg.Rows, cfg.Gates))
			scaleLocal(px, a1, cfg)
		case 3: // threshold + reduce + detection write-out
			a1 := dist.New[complex128](px.Proc, dist.RowBlock2D(g, cfg.Rows, cfg.Gates))
			// The report I/O is data-dependent (detections found); real data
			// sets yield one detection per row by construction, so pre-plant
			// one per local row for a representative output volume.
			if a1.IsMember() {
				rows := a1.LocalShape()[0]
				for r := 0; r < rows; r++ {
					a1.Local()[r*cfg.Gates] = complex(1, 0)
				}
			}
			thresholdAndReport(px, a1, cfg, 0, stats.NewStream(), func(int, int) {})
		default:
			panic(fmt.Sprintf("radar: no stage %d", s))
		}
	}
}

// ident is the content identity the radar cost tables and cell skeletons are
// filed under.
func ident(cfg Config) mapping.Ident {
	return mapping.Ident{App: "radar",
		Params: fmt.Sprintf("Gates=%d,Rows=%d,Scale=%g,Thr=%g", cfg.Gates, cfg.Rows, cfg.Scale, cfg.Threshold)}
}

// cells describes the radar program to the cost-table measurer. Its stage
// cells charge instead of computing (see Config.charge); the threshold
// stage and the data-parallel cell, whose report I/O counts detections,
// compute.
func cells(cfg Config) mapping.Cells {
	one := cfg
	one.Sets = 1
	charged := cfg
	charged.charge = true
	return mapping.Cells{
		Ident: ident(cfg),
		DPCap: cfg.Rows, // the data-parallel program cannot use more than Rows
		Stage: func(m *machine.Machine, s int) float64 { return fx.Run(m, stageBody(charged, s)).MakespanTime() },
		DP:    func(m *machine.Machine) float64 { return Run(m, one, mapping.DataParallel(m.N())).Stream.Latency },
	}
}

// Spec returns the content-keyed table spec MeasuredModel memoizes its cost
// tables under; exported for the serving layer's request dedupe.
func Spec(cost sim.CostModel, cfg Config, maxP int, opt mapping.BuildOptions) mapping.TableSpec {
	return ident(cfg).Spec(cost, maxP, stageNames, opt.Replay)
}

// MeasuredModel builds the radar cost model from isolated stage simulations,
// memoized by content key and replay-first under opt.Replay; see
// mapping.Cells.Measure.
func MeasuredModel(cost sim.CostModel, cfg Config, maxP int, opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
	return cells(cfg).Measure(cost, BuildModel(cost, cfg, maxP), opt)
}
