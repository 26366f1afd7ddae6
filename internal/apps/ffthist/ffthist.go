// Package ffthist implements the FFT-Hist image processing kernel of
// Sections 3.2/3.3 and Figure 2: a stream of N-by-N complex arrays flows
// through column FFTs, row FFTs and histogramming. It supports the paper's
// three mapping families —
//
//   - pure data parallelism (Figure 2(a)): every stage on all processors,
//   - a 3-stage data-parallel pipeline (Figure 2(c)): subgroups G1/G2/G3
//     connected by parent-scope array assignments,
//   - replicated (modules) data parallelism (Figure 3): alternate data sets
//     on disjoint subgroups, each module itself data-parallel or pipelined,
//
// all over the same numerical kernels, so results are comparable across
// mappings (tests verify the histograms are identical).
//
// Orientation trick: stage 1 stores the array transposed (column j of the
// data set is local row j), so "column FFTs" are local row FFTs, and the
// corner turn to row orientation is the parent-scope Transpose2D — the
// communication the paper's A2 = A1 assignment performs.
package ffthist

import (
	"fmt"

	"fxpar/internal/apps/streams"
	"fxpar/internal/comm"
	"fxpar/internal/dist"
	"fxpar/internal/fft"
	"fxpar/internal/fx"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/stats"
)

// Config describes the workload.
type Config struct {
	// N is the data set edge: each data set is an N-by-N complex array.
	N int
	// Sets is the stream length.
	Sets int
	// Bins is the number of histogram buckets.
	Bins int
	// SketchStats meters the stream in sketch mode (stats.NewSketchStream):
	// O(in-flight) meter memory and sketch-derived latency quantiles instead
	// of per-set retention — the scale tier's setting for long streams on
	// large machines.
	SketchStats bool

	// charge makes every kernel charge its flops from its local shape and
	// skip the arithmetic: the same messages and virtual times, no values.
	// Only the cost-table cells and Simulate set it.
	charge bool
}

// DefaultConfig returns the 256x256 workload of Table 1 with a short stream.
func DefaultConfig() Config { return Config{N: 256, Sets: 8, Bins: 64} }

// Validate rejects an N the distributed FFT cannot transform: it must be a
// positive power of two.
func (cfg Config) Validate() error {
	if cfg.N <= 0 || cfg.N&(cfg.N-1) != 0 {
		return fmt.Errorf("ffthist: N must be a positive power of two, got %d", cfg.N)
	}
	return nil
}

// Mapping, DataParallel and ChoiceToMapping forward to package mapping for
// the benchmark module; code in this module names package mapping directly.
type Mapping = mapping.Mapping

// DataParallel forwards to mapping.DataParallel.
func DataParallel(p int) Mapping { return mapping.DataParallel(p) }

// ChoiceToMapping returns the mapping c selected.
func ChoiceToMapping(c mapping.Choice) Mapping { return c.Mapping }

// Pipeline returns a single-module 3-stage pipeline mapping.
func Pipeline(pc, pr, ph int) mapping.Mapping {
	return mapping.Mapping{Modules: 1, Stages: []int{pc, pr, ph}}
}

// Result of a run.
type Result struct {
	Stream stats.Result
	// Hists maps data set index to its histogram, for cross-mapping
	// verification.
	Hists map[int][]int64
	// Makespan is the maximum processor finish time.
	Makespan float64
	// Stats is the raw per-processor machine statistics of the run.
	Stats machine.RunStats
}

// sample generates element (i, j) of data set s deterministically.
func sample(s, i, j, n int) complex128 {
	h := uint32(s*2654435761) ^ uint32(i*40503+j*9973)
	h ^= h >> 13
	h *= 1103515245
	h ^= h >> 16
	re := float64(h%1024)/1024 - 0.5
	im := float64((h>>10)%1024)/1024 - 0.5
	return complex(re, im)
}

// histMax is the histogram range upper bound; FFT outputs of unit-scale
// inputs of size N are bounded well within N.
func histMax(n int) float64 { return float64(n) }

// Run executes the stream under the given mapping and returns metered
// results. Processors the mapping leaves unused idle.
func Run(mach *machine.Machine, cfg Config, mp mapping.Mapping) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	meter := stats.NewStream()
	if cfg.SketchStats {
		meter = stats.NewSketchStream()
	}
	hists, st := program(cfg).Run("ffthist", mach, mp, cfg.Sets, meter)
	return Result{Stream: meter.Summarize(), Hists: hists, Makespan: st.MakespanTime(), Stats: st}
}

// Simulate is Run charging every kernel from shape (see Config.charge): the
// same Stream, Makespan, Stats and events, zero histograms, no data moved.
func Simulate(mach *machine.Machine, cfg Config, mp mapping.Mapping) Result {
	cfg.charge = true
	return Run(mach, cfg, mp)
}

// Caps returns the stages' processor caps (see streams.Program.Caps).
func (cfg Config) Caps() []int { return program(cfg).Caps() }

// done reports a data set's histogram (see streams.Stage.New).
type done = func(p *fx.Proc, set int, hist []int64)

// stageNames name the stages in the cost tables, in order; Spec reads
// them without building the program.
var stageNames = []string{"cffts", "rffts", "hist"}

// program is FFT-Hist's stage table. Stage 1 holds the data set transposed
// (column j of the data set is local row j), so its column FFTs are local
// row FFTs and the corner turn into stage 2 is the paper's A2 = A1.
func program(cfg Config) streams.Program[complex128, []int64] {
	layout := func(g *group.Group) *dist.Layout { return dist.RowBlock2D(g, cfg.N, cfg.N) }
	return streams.Program[complex128, []int64]{
		{Name: stageNames[0], Group: "G1", Cap: cfg.N, Layout: layout,
			New: func(p *fx.Proc, a *dist.Array[complex128], _ done) func(int) {
				full := streams.Frame(a, cfg.charge)
				return func(set int) {
					inputSet(p, a, full, cfg, set)
					fftLocalRows(p, a, cfg.N, cfg.charge)
				}
			}},
		{Name: stageNames[1], Group: "G2", Cap: cfg.N, Turn: true, Layout: layout,
			New: func(p *fx.Proc, a *dist.Array[complex128], _ done) func(int) {
				return func(int) { fftLocalRows(p, a, cfg.N, cfg.charge) }
			}},
		{Name: stageNames[2], Group: "G3", Cap: cfg.N, Layout: layout,
			New: func(p *fx.Proc, a *dist.Array[complex128], done done) func(int) {
				return func(set int) { histSet(p, a, cfg, set, done) }
			}},
	}
}

// ident is the content identity FFT-Hist's cost tables and cell skeletons
// are filed under.
func ident(cfg Config) mapping.Ident {
	return mapping.Ident{App: "ffthist", Params: fmt.Sprintf("N=%d,Bins=%d", cfg.N, cfg.Bins)}
}

// Spec returns the content-keyed table spec MeasuredModel memoizes its cost
// tables under. It is exported so the serving layer (internal/serve) can
// dedupe identical optimize requests on exactly the key the cache uses.
func Spec(cost sim.CostModel, cfg Config, maxP int, opt mapping.BuildOptions) mapping.TableSpec {
	return ident(cfg).Spec(cost, maxP, stageNames, opt.Replay)
}

// MeasuredModel builds the mapper's cost model for FFT-Hist from isolated
// stage simulations, memoized by content key and replay-first under
// opt.Replay; see mapping.Cells.Measure. A cell reads nothing but virtual
// time, and every kernel's flop charge is a function of shape, so the cells
// charge instead of computing.
func MeasuredModel(cost sim.CostModel, cfg Config, maxP int, opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
	cfg.charge = true
	pr := program(cfg)
	return pr.Cells(ident(cfg)).Measure(cost, pr.Model(cost, maxP), opt)
}

// inputSet models reading one data set from the sensor stream: rank 0 of g
// performs the (serial) I/O, generates the transposed data into full (see
// streams.Frame) unless cfg.charge is set, and scatters it over the
// stage-1 array.
func inputSet(p *fx.Proc, a *dist.Array[complex128], full []complex128, cfg Config, set int) {
	if !a.IsMember() {
		return
	}
	if a.Rank() == 0 {
		n := cfg.N
		p.IO(n * n * 16)
		if !cfg.charge {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					// Transposed orientation: local row i holds column i.
					full[i*n+j] = sample(set, j, i, n)
				}
			}
		}
	}
	dist.ScatterGlobal(p.Proc, a, full)
}

// fftLocalRows runs forward FFTs over every local row of the n-by-n array
// a, unless charge is set, and charges the cost.
func fftLocalRows(p *fx.Proc, a *dist.Array[complex128], n int, charge bool) {
	if !a.IsMember() || a.Layout().LocalCount(a.Rank()) == 0 {
		return
	}
	rows := a.Layout().LocalCount(a.Rank()) / n // columns are collapsed
	if charge {
		p.Compute(float64(rows) * fft.Flops(n))
		return
	}
	p.Compute(fft.Rows(a.Local(), n))
}

// histSet computes the distributed histogram of a (all zeros under
// cfg.charge) and reduces it to the group's rank 0, which writes it out and
// completes the set.
func histSet(p *fx.Proc, a *dist.Array[complex128], cfg Config, set int, done done) {
	if !a.IsMember() {
		return
	}
	var counts []int64
	flops := float64(a.Layout().LocalCount(a.Rank())) * fft.HistFlops
	if cfg.charge {
		counts = make([]int64, cfg.Bins)
	} else {
		counts, flops = fft.Histogram(a.Local(), cfg.Bins, histMax(cfg.N))
	}
	p.Compute(flops)
	g := a.Layout().Group()
	total := comm.ReduceSlice(p.Proc, g, 0, counts, func(x, y int64) int64 { return x + y })
	if a.Rank() == 0 {
		p.IO(cfg.Bins * 8)
		if done != nil {
			done(p, set, total)
		}
	}
}
