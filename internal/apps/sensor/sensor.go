// Package sensor describes the paper's three sensor programs (Table 1:
// FFT-Hist, radar, stereo) once, for every layer that runs them as a
// campaign: a program is a chain of data-parallel stages with a measured
// cost model, a mapping is modules x per-stage processors, and the Table 1
// cell is App.Optimize. experiments.Table1, the serving layer and fxprof all
// go through App; each program's typed Config stays behind it.
package sensor

import (
	"fmt"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/apps/radar"
	"fxpar/internal/apps/stereo"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/stats"
)

// Out is the simulated outcome of one run.
type Out struct {
	Stream   stats.Result
	Makespan float64
}

// App is one sensor program at one workload size. Every simulated number it
// produces is deterministic in virtual time — a pure function of (program,
// parameters, P, mapping).
type App struct {
	Name   string // "ffthist" | "radar" | "stereo"
	Size   string // Table 1's size column
	Params string // canonical parameters, stream length included
	prog   program
}

// program is one sensor program's typed Config behind what App asks of it.
type program interface {
	spec(cost sim.CostModel, p int, opt mapping.BuildOptions) mapping.TableSpec
	model(cost sim.CostModel, p int, opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error)
	run(m *machine.Machine, mp mapping.Mapping) Out
	caps() []int
}

type (
	fftHistProg ffthist.Config
	radarProg   radar.Config
	stereoProg  stereo.Config
)

func (c fftHistProg) spec(cost sim.CostModel, p int, opt mapping.BuildOptions) mapping.TableSpec {
	return ffthist.Spec(cost, ffthist.Config(c), p, opt)
}
func (c fftHistProg) model(cost sim.CostModel, p int, opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
	return ffthist.MeasuredModel(cost, ffthist.Config(c), p, opt)
}
func (c fftHistProg) run(m *machine.Machine, mp mapping.Mapping) Out {
	res := ffthist.Simulate(m, ffthist.Config(c), mp)
	return Out{res.Stream, res.Makespan}
}
func (c fftHistProg) caps() []int { return ffthist.Config(c).Caps() }

func (c radarProg) spec(cost sim.CostModel, p int, opt mapping.BuildOptions) mapping.TableSpec {
	return radar.Spec(cost, radar.Config(c), p, opt)
}
func (c radarProg) model(cost sim.CostModel, p int, opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
	return radar.MeasuredModel(cost, radar.Config(c), p, opt)
}
func (c radarProg) run(m *machine.Machine, mp mapping.Mapping) Out {
	res := radar.Simulate(m, radar.Config(c), mp)
	return Out{res.Stream, res.Makespan}
}
func (c radarProg) caps() []int { return radar.Config(c).Caps() }

func (c stereoProg) spec(cost sim.CostModel, p int, opt mapping.BuildOptions) mapping.TableSpec {
	return stereo.Spec(cost, stereo.Config(c), p, opt)
}
func (c stereoProg) model(cost sim.CostModel, p int, opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
	return stereo.MeasuredModel(cost, stereo.Config(c), p, opt)
}
func (c stereoProg) run(m *machine.Machine, mp mapping.Mapping) Out {
	res := stereo.Simulate(m, stereo.Config(c), mp)
	return Out{res.Stream, res.Makespan}
}
func (c stereoProg) caps() []int { return stereo.Config(c).Caps() }

// FFTHist is the FFT-Hist program under cfg.
func FFTHist(cfg ffthist.Config) App {
	return App{Name: "ffthist", Size: fmt.Sprintf("%dx%d", cfg.N, cfg.N),
		Params: fmt.Sprintf("N=%d,Bins=%d,Sets=%d", cfg.N, cfg.Bins, cfg.Sets), prog: fftHistProg(cfg)}
}

// Radar is the radar program under cfg.
func Radar(cfg radar.Config) App {
	return App{Name: "radar", Size: fmt.Sprintf("%dx%d", cfg.Gates, cfg.Rows),
		Params: fmt.Sprintf("Gates=%d,Rows=%d,Scale=%g,Thr=%g,Sets=%d", cfg.Gates, cfg.Rows, cfg.Scale, cfg.Threshold, cfg.Sets),
		prog:   radarProg(cfg)}
}

// Stereo is the stereo program under cfg.
func Stereo(cfg stereo.Config) App {
	return App{Name: "stereo", Size: fmt.Sprintf("%dx%d", cfg.W, cfg.H),
		Params: fmt.Sprintf("W=%d,H=%d,D=%d,Win=%d,Sets=%d", cfg.W, cfg.H, cfg.Disparities, cfg.Window, cfg.Sets),
		prog:   stereoProg(cfg)}
}

// Spec is the content key the cost tables for a p-processor machine are
// memoized under, and Model builds them (see mapping.Cells.Measure).
func (a App) Spec(cost sim.CostModel, p int, opt mapping.BuildOptions) mapping.TableSpec {
	return a.prog.spec(cost, p, opt)
}

// Model builds the program's measured cost model for a p-processor machine.
func (a App) Model(cost sim.CostModel, p int, opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
	return a.prog.model(cost, p, opt)
}

// Run simulates the stream through m under mp for callers that read only
// virtual time: every program charges from shape (ffthist.Simulate,
// radar.Simulate, stereo.Simulate). It panics on a mapping Validate rejects.
func (a App) Run(m *machine.Machine, mp mapping.Mapping) Out { return a.prog.run(m, mp) }

// Validate checks mp on a p-processor machine against the program's stage
// caps, the same caps its cost model prices (see mapping.Mapping.Validate).
func (a App) Validate(mp mapping.Mapping, p int) error {
	if err := mp.Validate(p, a.prog.caps()); err != nil {
		return fmt.Errorf("%s: %w", a.Name, err)
	}
	return nil
}

// DataParallel is the widest data-parallel mapping the program runs on a
// p-processor machine: the Table 1 baseline.
func (a App) DataParallel(p int) mapping.Mapping {
	return mapping.WidestDataParallel(p, a.prog.caps())
}

// ByName returns the named program streaming sets data sets at the paper's
// Table 1 size — FFT-Hist 256x256, radar 512x10x4, stereo 256x240 — or,
// with quick, at the reduced size of the same structure that answers in well
// under a second (32x32, 64x8, 64x24). n > 0 overrides the leading extent:
// the FFT-Hist edge, the radar gate count, the stereo image width. A size
// the program cannot run — a negative n, an FFT-Hist edge or radar gate
// count that is not a power of two — is an error.
func ByName(name string, quick bool, sets, n int) (App, error) {
	if n < 0 {
		return App{}, fmt.Errorf("%s: n must not be negative, got %d", name, n)
	}
	switch name {
	case "ffthist":
		cfg := ffthist.Config{N: 256, Sets: sets, Bins: 64}
		if quick {
			cfg.N = 32
		}
		if n > 0 {
			cfg.N = n
		}
		if err := cfg.Validate(); err != nil {
			return App{}, err
		}
		return FFTHist(cfg), nil
	case "radar":
		cfg := radar.DefaultConfig()
		if quick {
			cfg = radar.Config{Gates: 64, Rows: 8, Scale: 1.0 / 64, Threshold: 0.05}
		}
		if n > 0 {
			cfg.Gates = n
		}
		cfg.Sets = sets
		if cfg.Gates&(cfg.Gates-1) != 0 {
			return App{}, fmt.Errorf("radar: Gates must be a power of two, got %d", cfg.Gates)
		}
		return Radar(cfg), nil
	case "stereo":
		cfg := stereo.DefaultConfig()
		if quick {
			cfg = stereo.Config{W: 64, H: 24, Disparities: 8, Window: 2}
		}
		if n > 0 {
			cfg.W = n
		}
		cfg.Sets = sets
		return Stereo(cfg), nil
	}
	return App{}, fmt.Errorf("unknown app %q (have: ffthist, radar, stereo)", name)
}

// Optimized is one Table 1 cell: what Optimize found and measured.
type Optimized struct {
	ModelSource string         // where the cost tables came from; "" if the build failed
	Goal        float64        // the throughput goal the optimizer was given
	DP          Out            // the data-parallel baseline run
	Choice      mapping.Choice // the latency-optimal mapping meeting Goal
	Task        Out            // the run under Choice
}

// Optimize runs the campaign behind one Table 1 cell on a p-processor
// machine: build the measured cost model, simulate the data-parallel
// baseline, pick the latency-optimal mapping meeting the throughput goal and
// simulate it. goal is absolute (data sets per simulated second); when it is
// 0, goalRatio x the model's data-parallel throughput is used — the paper's
// relative-goal formulation — and both zero optimizes latency alone.
// newMachine must return a fresh p-processor machine at cost for each run.
// On a "model: ..." or "infeasible: ..." error the fields filled so far stand.
func (a App) Optimize(cost sim.CostModel, p int, goal, goalRatio float64, opt mapping.BuildOptions,
	newMachine func() *machine.Machine) (Optimized, error) {
	var r Optimized
	model, src, err := a.Model(cost, p, opt)
	if err != nil {
		return r, fmt.Errorf("model: %w", err)
	}
	r.ModelSource = src.String()
	r.DP = a.Run(newMachine(), a.DataParallel(p))
	r.Goal = goal
	if goal == 0 && goalRatio > 0 {
		r.Goal = goalRatio / model.DPT[p]
	}
	if r.Choice, err = mapping.Optimize(model, r.Goal); err != nil {
		return r, fmt.Errorf("infeasible: %w", err)
	}
	r.Task = a.Run(newMachine(), r.Choice.Mapping)
	return r, nil
}
