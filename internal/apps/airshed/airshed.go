// Package airshed implements the Airshed air quality simulation of Section
// 5.2 (McRae & Russell's CIT photochemical model): the concentration matrix
// (atmospheric layers x grid points x chemical species) is updated hourly by
// a mainly-sequential input phase, a preprocessing phase, a runtime-
// determined number of iterations of transport/chemistry/transport steps,
// and a mainly-sequential output phase.
//
// The sequential input and output phases consume only a few percent of the
// one-processor time, but become the bottleneck once the computation is
// sped up by data parallelism — the Amdahl effect of Figure 6. The task
// parallel version separates input and output into tasks on their own
// single-processor subgroups: the input task preprocesses hour h+1 while the
// main subgroup computes hour h, and the main subgroup hands raw results to
// the output task and continues.
package airshed

import (
	"fmt"

	"fxpar/internal/dist"
	"fxpar/internal/fx"
	"fxpar/internal/group"
	"fxpar/internal/machine"
)

// Config describes the airshed workload. The paper's typical dimensions are
// 5 layers, 500-5000 grid points, 35 species.
type Config struct {
	Layers  int
	Grid    int
	Species int
	Hours   int
	// Steps is the base number of simulation iterations per hour; the
	// actual count varies with the hourly input (Steps + hour%2), as the
	// paper notes it is determined at runtime.
	Steps int
	// ChemFlops, TransFlops, PreFlops are modeled per-element costs of the
	// chemistry, transport and preprocessing phases.
	ChemFlops  float64
	TransFlops float64
	PreFlops   float64
}

// DefaultConfig returns a workload whose serial I/O fraction is ~2% of the
// sequential time, matching Section 5.2.
func DefaultConfig() Config {
	return Config{
		Layers: 5, Grid: 2000, Species: 35,
		Hours: 6, Steps: 3,
		ChemFlops: 220, TransFlops: 25, PreFlops: 10,
	}
}

// Variant selects the program structure of Figure 6.
type Variant int

const (
	// DataParallel runs every phase on all processors, with serial I/O on
	// processor 0.
	DataParallel Variant = iota
	// TaskIO separates input and output into their own single-processor
	// subgroups overlapping the main computation.
	TaskIO
)

func (v Variant) String() string {
	if v == DataParallel {
		return "data-parallel"
	}
	return "task+data-parallel"
}

// Result of a run.
type Result struct {
	Makespan float64
	// Checksums maps hour to the global sum of the concentration matrix
	// after that hour's simulation — verified identical across variants.
	Checksums map[int]float64
}

func (c Config) elems() int { return c.Layers * c.Grid * c.Species }
func (c Config) bytes() int { return c.elems() * 8 }

func (c Config) nsteps(hour int) int { return c.Steps + hour%2 }

// initial returns the concentration of (layer, grid, species) at the start
// of the given hour.
func initial(hour, l, g, s int) float64 {
	h := uint32(hour*2654435761) ^ uint32(l*97+g*40503+s*9973)
	h ^= h >> 13
	h *= 1103515245
	h ^= h >> 16
	return 0.1 + float64(h%1024)/2048
}

// layout returns the concentration matrix layout over g: grid points
// block-distributed, layers and species collapsed.
func layout(g *group.Group, cfg Config) *dist.Layout {
	return dist.MustLayout(g,
		[]int{cfg.Layers, cfg.Grid, cfg.Species},
		[]dist.Axis{dist.CollapsedAxis(), dist.BlockAxis(), dist.CollapsedAxis()},
		[]int{1, g.Size(), 1})
}

// fillHour populates a's local part with the hour's initial conditions.
func fillHour(a *dist.Array[float64], hour int) {
	a.FillFunc(func(idx []int) float64 {
		return initial(hour, idx[0], idx[1], idx[2])
	})
}

// pretrans is the preprocessing phase: a cheap local pass.
func pretrans(p *fx.Proc, a *dist.Array[float64], cfg Config) {
	local := a.Local()
	for i, v := range local {
		local[i] = v * (1 + 1e-3)
	}
	p.Compute(float64(len(local)) * cfg.PreFlops)
}

// chemistry is the expensive local phase.
func chemistry(p *fx.Proc, a *dist.Array[float64], cfg Config) {
	local := a.Local()
	for i, v := range local {
		local[i] = v + 0.01*(0.5-v)*v
	}
	p.Compute(float64(len(local)) * cfg.ChemFlops)
}

// transport advects concentrations along the grid dimension: each grid
// point mixes with its predecessor, which requires one halo slice from the
// left neighbour in the block distribution.
func transport(p *fx.Proc, a *dist.Array[float64], cfg Config) {
	if !a.IsMember() {
		return
	}
	g := a.Layout().Group()
	localG := a.Layout().LocalCount(a.Rank()) / (cfg.Layers * cfg.Species)
	if localG == 0 {
		return
	}
	S, L := cfg.Species, cfg.Layers
	local := a.Local()
	rank := a.Rank()
	// Non-empty ranks form a contiguous prefix.
	size := 0
	for r := 0; r < g.Size(); r++ {
		if a.Layout().LocalCount(r) > 0 {
			size++
		}
	}
	slice := func(l, lg int) []float64 {
		off := (l*localG + lg) * S
		return local[off : off+S]
	}
	// Exchange boundary slices: my last grid slice goes right.
	var halo []float64 // left neighbour's last slice, per layer
	if size > 1 {
		if rank < size-1 {
			buf := make([]float64, 0, L*S)
			for l := 0; l < L; l++ {
				buf = append(buf, slice(l, localG-1)...)
			}
			p.Send(g.Phys(rank+1), buf, L*S*8)
		}
		if rank > 0 {
			halo = p.Recv(g.Phys(rank - 1)).Data.([]float64)
		}
	}
	const k = 0.25
	for l := 0; l < L; l++ {
		for lg := localG - 1; lg >= 0; lg-- {
			cur := slice(l, lg)
			var prev []float64
			switch {
			case lg > 0:
				prev = slice(l, lg-1)
			case halo != nil:
				prev = halo[l*S : (l+1)*S]
			default:
				prev = cur // global left edge: no inflow
			}
			for s := 0; s < S; s++ {
				cur[s] -= k * (cur[s] - prev[s])
			}
		}
	}
	p.Compute(float64(L*localG*S) * cfg.TransFlops)
}

// simulateHour runs the hour's transport/chemistry/transport iterations on
// the array's group.
func simulateHour(p *fx.Proc, a *dist.Array[float64], cfg Config, hour int) {
	for step := 0; step < cfg.nsteps(hour); step++ {
		transport(p, a, cfg)
		chemistry(p, a, cfg)
		transport(p, a, cfg)
	}
}

func checksum(full []float64) float64 {
	sum := 0.0
	for _, v := range full {
		sum += v
	}
	return sum
}

// Run executes the airshed simulation and returns makespan and per-hour
// checksums. TaskIO requires at least 3 processors.
func Run(mach *machine.Machine, cfg Config, v Variant) Result {
	res := Result{Checksums: make(map[int]float64)}
	mu := make(chan struct{}, 1)
	mu <- struct{}{}
	record := func(hour int, sum float64) {
		<-mu
		res.Checksums[hour] = sum
		mu <- struct{}{}
	}
	var runStats machine.RunStats
	switch v {
	case DataParallel:
		runStats = fx.Run(mach, func(p *fx.Proc) { runDataParallel(p, cfg, record) })
	case TaskIO:
		if mach.N() < 3 {
			panic(fmt.Sprintf("airshed: TaskIO needs >= 3 processors, machine has %d", mach.N()))
		}
		runStats = fx.Run(mach, func(p *fx.Proc) { runTaskIO(p, cfg, record) })
	default:
		panic(fmt.Sprintf("airshed: unknown variant %d", v))
	}
	res.Makespan = runStats.MakespanTime()
	return res
}

func runDataParallel(p *fx.Proc, cfg Config, record func(int, float64)) {
	g := p.Group()
	a := dist.New[float64](p.Proc, layout(g, cfg))
	for hour := 0; hour < cfg.Hours; hour++ {
		// inputhour: serial read on processor 0, then scatter.
		var full []float64
		if a.Rank() == 0 {
			p.IO(cfg.bytes())
			full = make([]float64, cfg.elems())
			idx := 0
			for l := 0; l < cfg.Layers; l++ {
				for gp := 0; gp < cfg.Grid; gp++ {
					for s := 0; s < cfg.Species; s++ {
						full[idx] = initial(hour, l, gp, s)
						idx++
					}
				}
			}
		}
		dist.ScatterGlobal(p.Proc, a, full)
		pretrans(p, a, cfg)
		simulateHour(p, a, cfg, hour)
		// outputhour: gather and serial write on processor 0.
		out := dist.GatherGlobal(p.Proc, a)
		if out != nil {
			record(hour, checksum(out))
			p.IO(cfg.bytes())
		}
	}
}

func runTaskIO(p *fx.Proc, cfg Config, record func(int, float64)) {
	n := p.NumberOfProcessors()
	part := p.Partition(
		group.Sub("in", 1),
		group.Sub("out", 1),
		group.Sub("main", n-2),
	)
	gIn, gOut, gMain := part.Group("in"), part.Group("out"), part.Group("main")
	ain := dist.New[float64](p.Proc, layout(gIn, cfg))
	a := dist.New[float64](p.Proc, layout(gMain, cfg))
	aout := dist.New[float64](p.Proc, layout(gOut, cfg))
	p.TaskRegion(part, func(r *fx.Region) {
		for hour := 0; hour < cfg.Hours; hour++ {
			hour := hour
			r.On("in", func() {
				// The input task reads and preprocesses the hour while the
				// main subgroup is still computing the previous one.
				p.IO(cfg.bytes())
				fillHour(ain, hour)
				pretrans(p, ain, cfg)
			})
			dist.Assign(p.Proc, a, ain)
			r.On("main", func() {
				simulateHour(p, a, cfg, hour)
			})
			// Transfer raw output and continue with the next hour.
			dist.Assign(p.Proc, aout, a)
			r.On("out", func() {
				record(hour, checksum(aout.Local()))
				p.IO(cfg.bytes())
			})
		}
	})
}
