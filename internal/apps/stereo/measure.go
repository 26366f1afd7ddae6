package stereo

import (
	"fmt"

	"fxpar/internal/dist"
	"fxpar/internal/fx"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/stats"
)

// stageBody returns the program of stage s of the stereo pipeline run in
// isolation for one data set: the unit of both plain measurement and traced
// capture.
func stageBody(cfg Config, s int) func(*fx.Proc) {
	return func(px *fx.Proc) {
		g := px.Group()
		vol := newVolume(px, g, cfg)
		switch s {
		case 0: // diff: camera read + scatter + SSD volume
			diffStage(px, vol, newFrames(px, g, cfg), cfg, 0)
		case 1: // error: window sums with halo exchange
			errorStage(px, vol, cfg)
		case 2: // depth: argmin + reduce + depth-image write
			depth := dist.New[int32](px.Proc, dist.RowBlock2D(g, cfg.H, cfg.W))
			depthStage(px, vol, depth, cfg, 0, stats.NewStream(), func(int, int64) {})
		default:
			panic(fmt.Sprintf("stereo: no stage %d", s))
		}
	}
}

// ident is the content identity the stereo cost tables and cell skeletons
// are filed under.
func ident(cfg Config) mapping.Ident {
	return mapping.Ident{App: "stereo",
		Params: fmt.Sprintf("W=%d,H=%d,D=%d,Win=%d", cfg.W, cfg.H, cfg.Disparities, cfg.Window)}
}

// cells describes the stereo program to the cost-table measurer. A cell
// reads nothing but virtual time, so its stages charge instead of computing
// (see Config.charge).
func cells(cfg Config) mapping.Cells {
	cfg.charge = true
	one := cfg
	one.Sets = 1
	return mapping.Cells{
		Ident: ident(cfg),
		DPCap: cfg.ErrorCap(), // the image rows, as deep blocks as the error window needs
		Stage: func(m *machine.Machine, s int) float64 { return fx.Run(m, stageBody(cfg, s)).MakespanTime() },
		DP:    func(m *machine.Machine) float64 { return Run(m, one, mapping.DataParallel(m.N())).Stream.Latency },
	}
}

// Spec returns the content-keyed table spec MeasuredModel memoizes its cost
// tables under; exported for the serving layer's request dedupe.
func Spec(cost sim.CostModel, cfg Config, maxP int, opt mapping.BuildOptions) mapping.TableSpec {
	return ident(cfg).Spec(cost, maxP, stageNames, opt.Replay)
}

// MeasuredModel builds the stereo cost model from isolated stage
// simulations, memoized by content key and replay-first under opt.Replay;
// see mapping.Cells.Measure.
func MeasuredModel(cost sim.CostModel, cfg Config, maxP int, opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
	return cells(cfg).Measure(cost, BuildModel(cost, cfg, maxP), opt)
}
