package ffthist

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

// stageBody returns the program of stage s of FFT-Hist run in isolation for
// one data set: the unit of both plain measurement and traced capture.
func stageBody(cfg Config, s int) func(*fx.Proc) {
	return func(px *fx.Proc) {
		g := px.Group()
		a := dist.New[complex128](px.Proc, dist.RowBlock2D(g, cfg.N, cfg.N))
		switch s {
		case 0: // cffts: sensor read + scatter + column FFTs
			inputSet(px, a, streams.Frame(a, cfg.charge), cfg, 0)
			fftLocalRows(px, a, cfg.charge)
		case 1: // rffts: row FFTs only
			fftLocalRows(px, a, cfg.charge)
		case 2: // hist: histogram + reduction + result write
			histSet(px, a, cfg, 0, stats.NewStream(), func(int, []int64) {})
		default:
			panic(fmt.Sprintf("ffthist: no stage %d", s))
		}
	}
}

// ident is the content identity FFT-Hist's cost tables and cell skeletons
// are filed under.
func ident(cfg Config) mapping.Ident {
	return mapping.Ident{App: "ffthist", Params: fmt.Sprintf("N=%d,Bins=%d", cfg.N, cfg.Bins)}
}

// cells describes FFT-Hist to the cost-table measurer. The simulation is
// deterministic in virtual time, so every cell is a pure function of
// (cost, cfg, s, p). A cell reads nothing but virtual time, and every
// kernel's flop charge is a function of shape, so the cells charge instead
// of computing.
func cells(cfg Config) mapping.Cells {
	cfg.charge = true
	one := cfg
	one.Sets = 1
	return mapping.Cells{
		Ident: ident(cfg),
		DPCap: cfg.N, // the program distributes over the N matrix rows
		Stage: func(m *machine.Machine, s int) float64 { return fx.Run(m, stageBody(cfg, s)).MakespanTime() },
		DP:    func(m *machine.Machine) float64 { return Run(m, one, mapping.DataParallel(m.N())).Stream.Latency },
	}
}

// Spec returns the content-keyed table spec MeasuredModel memoizes its cost
// tables under. It is exported so the serving layer (internal/serve) can
// dedupe identical optimize requests on exactly the key the cache uses.
func Spec(cost sim.CostModel, cfg Config, maxP int, opt mapping.BuildOptions) mapping.TableSpec {
	return ident(cfg).Spec(cost, maxP, stageNames, opt.Replay)
}

// MeasuredModel builds the mapper's cost model for FFT-Hist from isolated
// stage simulations instead of BuildModel's closed forms, memoized by
// content key and replay-first under opt.Replay; see mapping.Cells.Measure.
func MeasuredModel(cost sim.CostModel, cfg Config, maxP int, opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
	return cells(cfg).Measure(cost, BuildModel(cost, cfg, maxP), opt)
}
