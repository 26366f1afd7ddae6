package experiments

import (
	"fmt"
	"io"
	"time"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/apps/sensor"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
	"fxpar/internal/sweep"
)

// Scenario is the one FFT-Hist run the chaos, what-if and replay campaigns
// perturb, re-cost and replay: a Sets-long stream of N-by-N data sets (64
// histogram bins) on a Procs-processor three-stage pipeline under the
// Paragon cost model. Every deterministic report field is a function of
// Procs, N and Sets alone. Workers bounds host parallelism (0 = GOMAXPROCS)
// and Engine selects the execution engine (nil: package default); neither
// changes a report.
type Scenario struct {
	Procs   int
	N       int
	Sets    int
	Workers int
	Engine  machine.Engine
}

// defaultScenario is the 16-processor pipeline every campaign's default
// configuration runs.
var defaultScenario = Scenario{Procs: 16, N: 64, Sets: 6}

// Validate rejects a scenario that cannot run: too few processors for one
// per pipeline stage, or an N that is not a positive power of two.
func (s Scenario) Validate() error {
	if err := sensor.FFTHist(s.app()).Validate(s.mapping(), s.Procs); err != nil {
		return err
	}
	return s.app().Validate()
}

// mapping splits the processors into the pipeline: a quarter each on the
// column-FFT and histogram stages, the rest on the row-FFT stage, so every
// data set crosses two group boundaries and message faults bite.
func (s Scenario) mapping() mapping.Mapping {
	pc := max(s.Procs/4, 1)
	return ffthist.Pipeline(pc, s.Procs-2*pc, pc)
}

func (s Scenario) app() ffthist.Config { return ffthist.Config{N: s.N, Sets: s.Sets, Bins: 64} }

// run executes the scenario once at cost under fault plan fp and tracer tr
// (nil: none).
func (s Scenario) run(cost sim.CostModel, fp machine.FaultPlan, tr machine.Tracer) ffthist.Result {
	m := newMachine(s.Procs, cost, s.Engine, fp)
	m.SetTracer(tr)
	return ffthist.Run(m, s.app(), s.mapping())
}

// capture records the scenario's skeleton at the base cost under fault plan
// fp (nil: healthy); the plan's faults are baked into the recorded DAG.
func (s Scenario) capture(fp machine.FaultPlan) (*skeleton.Skeleton, error) {
	sink := skeleton.NewSink(sim.Paragon(), chaosLabel(fp))
	s.run(sim.Paragon(), fp, sink)
	return sink.Skeleton()
}

// skeletonHead opens the what-if and replay reports: the scenario, its
// healthy skeleton's identity and recorded makespan, and whether re-costing
// at recorded parameters reproduced it bitwise (it must — a false here is a
// determinism regression).
type skeletonHead struct {
	Name          string
	Procs         int
	N             int
	Sets          int
	SkeletonKey   string
	SkeletonOps   int
	Baseline      float64
	IdentityExact bool
}

// head describes sk, a capture of the scenario, under report name.
func (s Scenario) head(name string, sk *skeleton.Skeleton) (skeletonHead, error) {
	key, err := sk.Key()
	if err != nil {
		return skeletonHead{}, err
	}
	identity, err := sk.Recost(skeleton.Params{})
	return skeletonHead{Name: name, Procs: s.Procs, N: s.N, Sets: s.Sets, SkeletonKey: key,
		SkeletonOps: sk.Ops(), Baseline: sk.Makespan, IdentityExact: identity == sk.Makespan}, err
}

// writeText prints the head; verb names the analytic evaluation.
func (h skeletonHead) writeText(w io.Writer, verb string) {
	fmt.Fprintf(w, "=== %s: P=%d N=%d Sets=%d ===\n", h.Name, h.Procs, h.N, h.Sets)
	fmt.Fprintf(w, "skeleton %s, %d ops, baseline makespan %.6f s\n", h.SkeletonKey, h.SkeletonOps, h.Baseline)
	if h.IdentityExact {
		fmt.Fprintf(w, "determinism: %s at recorded parameters reproduces the makespan exactly\n", verb)
	} else {
		fmt.Fprintf(w, "determinism: VIOLATED — %s at recorded parameters deviates\n", verb)
	}
}

// GridPoint is one analytic re-cost of a scenario skeleton with one machine
// parameter scaled (see replayCost).
type GridPoint struct {
	Param    string
	Scale    float64
	Makespan float64
}

// recostGrid re-costs the skeleton get returns at every (param, scale) point
// as sweep jobs called name, param-major and scale-minor — one order for
// every -j. get is consulted once per job.
func (s Scenario) recostGrid(name string, params []string, scales []float64, get func() (*skeleton.Skeleton, error)) ([]GridPoint, error) {
	var grid []GridPoint
	for _, p := range params {
		for _, sc := range scales {
			grid = append(grid, GridPoint{Param: p, Scale: sc})
		}
	}
	res := sweep.MapNamed(name, s.Workers, len(grid), func(i int) (float64, error) {
		sk, err := get()
		if err != nil {
			return 0, err
		}
		_, p := replayCost(sim.Paragon(), grid[i].Param, grid[i].Scale)
		return sk.Recost(p)
	})
	for i, r := range res {
		if r.Err != nil {
			return nil, r.Err
		}
		grid[i].Makespan = r.Value
	}
	return grid, nil
}

// crossCheck is one grid point re-simulated live at the same parameters.
type crossCheck struct {
	Param  string
	Scale  float64
	Recost float64
	Sim    float64
}

// resimulate runs the scenario live at g's parameters: the ground truth g's
// re-cost stands in for. A net scale multiplies every wire time, which a
// simulation expresses by scaling alpha, beta and per-hop together (exact
// for power-of-two scales).
func (s Scenario) resimulate(g GridPoint) crossCheck {
	c, _ := replayCost(sim.Paragon(), g.Param, g.Scale)
	if g.Param == "netscale" {
		c.Alpha, c.Beta, c.PerHop = c.Alpha*g.Scale, c.Beta*g.Scale, c.PerHop*g.Scale
	}
	return crossCheck{Param: g.Param, Scale: g.Scale, Recost: g.Makespan, Sim: s.run(c, nil, nil).Makespan}
}

// hostThroughput times 64 re-costs of sk (cycling params at scale 2)
// against 4 live runs of the scenario: the host-time payoff of capturing
// once. Host-dependent, so never part of a golden.
func (s Scenario) hostThroughput(sk *skeleton.Skeleton, params []string) (recostsPerSec, simsPerSec, seconds float64, err error) {
	const recostReps, simReps = 64, 4
	t0 := time.Now()
	for i := range recostReps {
		_, p := replayCost(sim.Paragon(), params[i%len(params)], 2)
		if _, err := sk.Recost(p); err != nil {
			return 0, 0, 0, err
		}
	}
	t1 := time.Now()
	for range simReps {
		s.run(sim.Paragon(), nil, nil)
	}
	t2 := time.Now()
	// At least 1ns per block: a coarse clock must not divide by zero.
	return recostReps / max(t1.Sub(t0), 1).Seconds(), simReps / max(t2.Sub(t1), 1).Seconds(), t2.Sub(t0).Seconds(), nil
}

// replayCost returns the base cost model with one parameter scaled and the
// re-cost parameters that express it: "alpha", "beta" and "floprate" scale
// that sim.CostModel field; "netscale" multiplies every wire time through
// Params.NetScale and leaves the cost unchanged.
func replayCost(base sim.CostModel, param string, scale float64) (sim.CostModel, skeleton.Params) {
	c := base
	switch param {
	case "alpha":
		c.Alpha *= scale
	case "beta":
		c.Beta *= scale
	case "floprate":
		c.FlopRate *= scale
	case "netscale":
		return c, skeleton.Params{NetScale: scale}
	default:
		panic("experiments: unknown grid parameter " + param)
	}
	return c, skeleton.Params{Cost: &c}
}
