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

	"fxpar/internal/apps/streams"
	"fxpar/internal/comm"
	"fxpar/internal/dist"
	"fxpar/internal/fft"
	"fxpar/internal/fx"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
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

	// charge makes the input, FFT and scale kernels charge their flops from
	// their local shape and skip the arithmetic: the same messages and
	// virtual times, no values. Thresholding always computes, since the
	// report it writes is one record per detection. Only the cost-table
	// cells set it (see cells).
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

// ValidateMapping checks mp on a total-processor machine: the shape check
// for a 4-stage pipeline (input/corner-turn, FFT, scale, threshold), and no
// stage wider than the Rows the program distributes — except the pipeline's
// input stage, which scatters Gates rows.
func (cfg Config) ValidateMapping(mp mapping.Mapping, total int) error {
	if err := mp.Validate(total, len(stageNames)); err != nil {
		return fmt.Errorf("radar: %w", err)
	}
	for _, stages := range [][]int{mp.Stages, mp.WideStages} {
		for i, q := range stages {
			if (len(stages) == 1 || i > 0) && q > cfg.Rows {
				return fmt.Errorf("radar: stage %d uses %d processors but only %d rows exist", i, q, cfg.Rows)
			}
		}
	}
	return nil
}

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
	if err := cfg.ValidateMapping(mp, mach.N()); err != nil {
		panic(err)
	}
	if cfg.Gates&(cfg.Gates-1) != 0 || cfg.Gates <= 0 {
		panic(fmt.Sprintf("radar: Gates must be a power of two, got %d", cfg.Gates))
	}
	meter := stats.NewStream()
	res := Result{Kept: make(map[int]int)}
	mu := make(chan struct{}, 1)
	mu <- struct{}{}
	record := func(set, kept int) {
		<-mu
		res.Kept[set] = kept
		mu <- struct{}{}
	}
	sizes := mp.ModuleSizes()
	runStats := fx.Run(mach, func(p *fx.Proc) {
		streams.RunModules(p, sizes, func(p *fx.Proc, module int) {
			runModule(p, cfg, mp.ModuleStages(module), module, mp.Modules, meter, record)
		})
	})
	res.Stream = meter.Summarize()
	res.Makespan = runStats.MakespanTime()
	res.runStats = runStats
	return res
}

func runModule(p *fx.Proc, cfg Config, stages []int, first, stride int,
	meter *stats.Stream, record func(int, int)) {
	if len(stages) == 1 {
		runDataParallel(p, cfg, stages[0], first, stride, meter, record)
		return
	}
	runPipeline(p, cfg, stages, first, stride, meter, record)
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

func fftRows(p *fx.Proc, a *dist.Array[complex128], charge bool) {
	if !a.IsMember() || a.Layout().LocalCount(a.Rank()) == 0 {
		return
	}
	shape := a.LocalShape()
	if charge {
		p.Compute(float64(shape[0]) * fft.Flops(shape[1]))
		return
	}
	p.Compute(fft.Rows(a.Local(), shape[1]))
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

// thresholdAndReport thresholds locally, reduces the detection count to
// rank 0, which writes the detections out and completes the set.
func thresholdAndReport(p *fx.Proc, a *dist.Array[complex128], cfg Config,
	set int, meter *stats.Stream, record func(int, int)) {
	if !a.IsMember() {
		return
	}
	kept, flops := fft.Threshold(a.Local(), cfg.Threshold)
	p.Compute(flops)
	g := a.Layout().Group()
	total := comm.Reduce(p.Proc, g, 0, kept, func(x, y int) int { return x + y })
	if a.Rank() == 0 {
		p.IO(total * 8)
		meter.Complete(set, p.Now())
		record(set, total)
	}
}

func runDataParallel(p *fx.Proc, cfg Config, procs, first, stride int,
	meter *stats.Stream, record func(int, int)) {
	// The data-parallel program cannot exploit more processors than rows.
	useful := procs
	if useful > cfg.Rows {
		useful = cfg.Rows
	}
	body := func() {
		g := p.Group()
		a0 := dist.New[complex128](p.Proc, dist.RowBlock2D(g, cfg.Gates, cfg.Rows))
		a1 := dist.New[complex128](p.Proc, dist.RowBlock2D(g, cfg.Rows, cfg.Gates))
		full := streams.Frame(a0, cfg.charge)
		for set := first; set < cfg.Sets; set += stride {
			if a0.Rank() == 0 {
				meter.Inject(set, p.Now())
			}
			inputSet(p, a0, full, cfg, set)
			dist.Transpose2D(p.Proc, a1, a0) // corner turn
			fftRows(p, a1, cfg.charge)
			scaleLocal(p, a1, cfg)
			thresholdAndReport(p, a1, cfg, set, meter, record)
		}
	}
	if useful < p.NumberOfProcessors() {
		p.OnProcs(0, useful, body)
	} else {
		body()
	}
}

func runPipeline(p *fx.Proc, cfg Config, stages []int, first, stride int,
	meter *stats.Stream, record func(int, int)) {
	g := p.Group()
	lo := 0
	subs := make([]*group.Group, 4)
	for i, q := range stages {
		subs[i] = g.Subrange(lo, lo+q)
		lo += q
	}
	a0 := dist.New[complex128](p.Proc, dist.RowBlock2D(subs[0], cfg.Gates, cfg.Rows))
	a1 := dist.New[complex128](p.Proc, dist.RowBlock2D(subs[1], cfg.Rows, cfg.Gates))
	a2 := dist.New[complex128](p.Proc, dist.RowBlock2D(subs[2], cfg.Rows, cfg.Gates))
	a3 := dist.New[complex128](p.Proc, dist.RowBlock2D(subs[3], cfg.Rows, cfg.Gates))
	full := streams.Frame(a0, cfg.charge)
	fx.PipelineLoop(p, fx.PipelineSpec{
		Sets: cfg.Sets, First: first, Stride: stride,
		Stages: []fx.Stage{
			{Name: "Gin", Procs: stages[0], Body: func(set int) {
				if a0.Rank() == 0 {
					meter.Inject(set, p.Now())
				}
				inputSet(p, a0, full, cfg, set)
			}},
			{Name: "Gfft", Procs: stages[1], Body: func(set int) { fftRows(p, a1, cfg.charge) }},
			{Name: "Gscale", Procs: stages[2], Body: func(set int) { scaleLocal(p, a2, cfg) }},
			{Name: "Gthr", Procs: stages[3], Body: func(set int) {
				thresholdAndReport(p, a3, cfg, set, meter, record)
			}},
		},
		Transfer: []func(int){
			func(int) { dist.Transpose2D(p.Proc, a1, a0) }, // corner turn
			func(int) { dist.Assign(p.Proc, a2, a1) },
			func(int) { dist.Assign(p.Proc, a3, a2) },
		},
	})
}
