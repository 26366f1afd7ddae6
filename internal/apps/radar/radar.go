// Package radar implements the narrowband tracking radar benchmark of
// Section 5.1 (developed at MIT Lincoln Labs): each data set is processed by
// a corner turn to form the transposed matrix, independent row FFTs,
// scaling, and thresholding.
//
// The data-parallel version of this program cannot use more processors than
// the matrix has rows (channels x beams = 40 for the paper's 512x10x4 data
// set) — "the structure of parallelization" — which is why the paper's task
// version improved throughput 3x with no latency cost: pipelining and
// replication put the idle processors to work. The same structure is
// reproduced here: stages are capped at Rows processors.
package radar

import (
	"fmt"
	"math"
	"sync"

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

// Config describes the radar workload. A data set is a Gates-by-Rows
// complex matrix as it arrives from the sensor (gate-major), corner-turned
// into Rows-by-Gates for row FFTs. The paper's data set is 512x10x4:
// Gates=512, Rows=10 channels x 4 beams=40.
type Config struct {
	Gates     int // FFT length; power of two
	Rows      int // channels x beams
	Sets      int
	Scale     float64 // scaling factor applied after the FFTs
	Threshold float64 // detection threshold

	// charge makes every kernel charge its flops from its local shape and
	// skip the arithmetic: the same messages and virtual times, no values.
	// The report the threshold stage writes is one record per detection, so
	// its count comes from a detection table the reference kernel fills per
	// data set (see detections). Only the cost-table cells and Simulate set
	// it.
	charge bool
}

// DefaultConfig is the paper's 512x10x4 data set.
func DefaultConfig() Config {
	return Config{Gates: 512, Rows: 40, Sets: 8, Scale: 1.0 / 512, Threshold: 0.05}
}

// DataParallel and ChoiceToMapping forward to package mapping for the
// benchmark module; code in this module names package mapping directly.
func DataParallel(p int) mapping.Mapping { return mapping.DataParallel(p) }

// ChoiceToMapping returns the mapping c selected.
func ChoiceToMapping(c mapping.Choice) mapping.Mapping { return c.Mapping }

// Result of a run. Kept maps data set index to the number of
// above-threshold detections, for cross-mapping verification.
type Result struct {
	Stream   stats.Result
	Kept     map[int]int
	Makespan float64
	// runStats is the raw per-processor machine statistics of the run.
	runStats machine.RunStats
}

// sample generates element (gate, row) of data set s: background noise plus
// one unit-amplitude tone per row. The row FFT concentrates the tone into a
// single bin of magnitude ~Gates, so after 1/Gates scaling each row yields
// exactly one above-threshold detection over the noise floor.
func sample(s, gate, row, gates int) complex128 {
	h := uint32(s*2246822519) ^ uint32(gate*2654435761+row*40503)
	h ^= h >> 15
	h *= 2246822519
	h ^= h >> 13
	re := (float64(h%2048)/2048 - 0.5) * 0.2
	im := (float64((h>>11)%2048)/2048 - 0.5) * 0.2
	k0 := (uint32(s*31+row*17) * 2654435761 >> 16) % uint32(gates) // per-row target frequency
	phase := 2 * math.Pi * float64(k0) * float64(gate) / float64(gates)
	return complex(re+math.Cos(phase), im+math.Sin(phase))
}

// Run executes the stream under the mapping.
func Run(mach *machine.Machine, cfg Config, mp mapping.Mapping) Result {
	if cfg.Gates&(cfg.Gates-1) != 0 || cfg.Gates <= 0 {
		panic(fmt.Sprintf("radar: Gates must be a power of two, got %d", cfg.Gates))
	}
	meter := stats.NewStream()
	kept, st := program(cfg).Run("radar", mach, mp, cfg.Sets, meter)
	return Result{Stream: meter.Summarize(), Kept: kept, Makespan: st.MakespanTime(), runStats: st}
}

// Simulate is Run charging every kernel from shape (see Config.charge): the
// same Stream, Kept, Makespan, statistics and events, no data moved.
func Simulate(mach *machine.Machine, cfg Config, mp mapping.Mapping) Result {
	cfg.charge = true
	return Run(mach, cfg, mp)
}

// Caps returns the stages' processor caps (see streams.Program.Caps).
func (cfg Config) Caps() []int { return program(cfg).Caps() }

// done reports a data set's detection count (see streams.Stage.New).
type done = func(p *fx.Proc, set int, kept int)

// stageNames name the stages in the cost tables, in order; Spec reads
// them without building the program.
var stageNames = []string{"input", "fft", "scale", "threshold"}

// program is the radar stage table. The input stage holds a data set as it
// arrives, gate-major over Gates rows; the corner turn into the FFT stage
// makes it Rows-by-Gates, and no later stage can use more processors than
// those Rows. Under charge, every run of the program shares one detection
// table.
func program(cfg Config) streams.Program[complex128, int] {
	var det *detections
	if cfg.charge {
		det = &detections{cfg: cfg, rows: map[int][]int{}}
	}
	byRow := func(g *group.Group) *dist.Layout { return dist.RowBlock2D(g, cfg.Rows, cfg.Gates) }
	return streams.Program[complex128, int]{
		{Name: stageNames[0], Group: "Gin", Cap: cfg.Gates,
			Layout: func(g *group.Group) *dist.Layout { return dist.RowBlock2D(g, cfg.Gates, cfg.Rows) },
			New: func(p *fx.Proc, a *dist.Array[complex128], _ done) func(int) {
				full := streams.Frame(a, cfg.charge)
				return func(set int) { inputSet(p, a, full, cfg, set) }
			}},
		{Name: stageNames[1], Group: "Gfft", Cap: cfg.Rows, Turn: true, Layout: byRow,
			New: func(p *fx.Proc, a *dist.Array[complex128], _ done) func(int) {
				return func(int) { fftRows(p, a, cfg) }
			}},
		{Name: stageNames[2], Group: "Gscale", Cap: cfg.Rows, Layout: byRow,
			New: func(p *fx.Proc, a *dist.Array[complex128], _ done) func(int) {
				return func(int) { scaleLocal(p, a, cfg) }
			}},
		{Name: stageNames[3], Group: "Gthr", Cap: cfg.Rows, Layout: byRow,
			New: func(p *fx.Proc, a *dist.Array[complex128], done done) func(int) {
				// The report I/O counts the detections found. Real data sets
				// yield one per row by construction, so the stage run alone as
				// a cost-table cell (done == nil) starts with one per local
				// row and writes a representative report.
				if done == nil && a.IsMember() {
					for r := range a.LocalShape()[0] {
						a.Local()[r*cfg.Gates] = complex(1, 0)
					}
				}
				return func(set int) { thresholdAndReport(p, a, cfg, det, set, done) }
			}},
	}
}

// ident is the content identity the radar cost tables and cell skeletons are
// filed under.
func ident(cfg Config) mapping.Ident {
	return mapping.Ident{App: "radar",
		Params: fmt.Sprintf("Gates=%d,Rows=%d,Scale=%g,Thr=%g", cfg.Gates, cfg.Rows, cfg.Scale, cfg.Threshold)}
}

// Spec returns the content-keyed table spec MeasuredModel memoizes its cost
// tables under; exported for the serving layer's request dedupe.
func Spec(cost sim.CostModel, cfg Config, maxP int, opt mapping.BuildOptions) mapping.TableSpec {
	return ident(cfg).Spec(cost, maxP, stageNames, opt.Replay)
}

// MeasuredModel builds the radar cost model from isolated stage simulations,
// memoized by content key and replay-first under opt.Replay; see
// mapping.Cells.Measure. The cells charge instead of computing (see
// Config.charge), and the data-parallel cells share one detection table.
func MeasuredModel(cost sim.CostModel, cfg Config, maxP int, opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
	cfg.charge = true
	pr := program(cfg)
	return pr.Cells(ident(cfg)).Measure(cost, pr.Model(cost, maxP), opt)
}

// inputSet reads one gate-major data set into full (see streams.Frame) on
// rank 0 of a's group, unless cfg.charge is set, and scatters it.
func inputSet(p *fx.Proc, a *dist.Array[complex128], full []complex128, cfg Config, set int) {
	if !a.IsMember() {
		return
	}
	if a.Rank() == 0 {
		p.IO(cfg.Gates * cfg.Rows * 16)
		if !cfg.charge {
			for g := 0; g < cfg.Gates; g++ {
				for r := 0; r < cfg.Rows; r++ {
					full[g*cfg.Rows+r] = sample(set, g, r, cfg.Gates)
				}
			}
		}
	}
	dist.ScatterGlobal(p.Proc, a, full)
}

func fftRows(p *fx.Proc, a *dist.Array[complex128], cfg Config) {
	if !a.IsMember() || a.Layout().LocalCount(a.Rank()) == 0 {
		return
	}
	if cfg.charge {
		p.Compute(float64(a.Layout().LocalCount(a.Rank())/cfg.Gates) * fft.Flops(cfg.Gates))
		return
	}
	p.Compute(fft.Rows(a.Local(), cfg.Gates))
}

func scaleLocal(p *fx.Proc, a *dist.Array[complex128], cfg Config) {
	if !a.IsMember() {
		return
	}
	if cfg.charge {
		p.Compute(float64(a.Layout().LocalCount(a.Rank())) * fft.ScaleFlops)
		return
	}
	p.Compute(fft.Scale(a.Local(), cfg.Scale))
}

// thresholdAndReport thresholds locally and reduces the detection count to
// rank 0, which writes the detections out and completes the set. Under
// charge in a run (det set, done not nil) each local row's count comes from
// det.
func thresholdAndReport(p *fx.Proc, a *dist.Array[complex128], cfg Config, det *detections, set int, done done) {
	if !a.IsMember() {
		return
	}
	n, kept := a.Layout().LocalCount(a.Rank()), 0
	if det != nil && done != nil {
		rows := det.of(set)
		for r := range n / cfg.Gates {
			kept += rows[a.GlobalRowOfLocal(r)]
		}
	} else {
		kept, _ = fft.Threshold(a.Local(), cfg.Threshold)
	}
	p.Compute(float64(n) * fft.ThresholdFlops)
	g := a.Layout().Group()
	total := comm.Reduce(p.Proc, g, 0, kept, func(x, y int) int { return x + y })
	if a.Rank() == 0 {
		p.IO(total * 8)
		if done != nil {
			done(p, set, total)
		}
	}
}

// detections holds, per data set, the number of detections in each row,
// found by the reference kernel one row at a time: sample, fft.Rows,
// fft.Scale, fft.Threshold. A row lives whole on one processor through
// every stage, so the counts equal the distributed path's bit for bit.
// A table is filled lazily, once per set, by whichever processor asks
// first; it never blocks on the simulated machine, so it cannot stall a
// cooperative engine.
type detections struct {
	cfg  Config
	mu   sync.Mutex
	rows map[int][]int
}

// of returns set's per-row detection counts, filling them on first use.
func (d *detections) of(set int) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if rows, ok := d.rows[set]; ok {
		return rows
	}
	rows, row := make([]int, d.cfg.Rows), make([]complex128, d.cfg.Gates)
	for r := range rows {
		for g := range row {
			row[g] = sample(set, g, r, d.cfg.Gates)
		}
		fft.Rows(row, d.cfg.Gates)
		fft.Scale(row, d.cfg.Scale)
		rows[r], _ = fft.Threshold(row, d.cfg.Threshold)
	}
	d.rows[set] = rows
	return rows
}
