package experiments

import (
	"fmt"
	"io"
	"time"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/fault"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
	"fxpar/internal/sweep"
)

// ReplayConfig scopes a skeleton-replay campaign: one FFT-Hist pipeline run
// is captured once into the skeleton store — plus one chaotic capture under
// a deterministic fault plan — and a sweep of campaign jobs varying only
// machine parameters (alpha, beta, flop rate, net scale) answers every job
// by one analytic DAG evaluation against the store instead of a full
// re-simulation. A sampled fraction of replayed jobs is cross-checked by
// re-simulating at the same parameters and asserting bitwise-equal
// makespans. The campaign closes with a replay-first mapping search: cost
// tables for several machine variants are built through the store, so the
// whole search costs one traced simulation per cell plus cheap re-costs.
//
// Everything except the Host* throughput fields is a pure function of
// (config minus Workers/Engine/StoreDir), so the report is a committable
// golden (testdata/replay.golden.json, compared exactly with Host* zeroed).
type ReplayConfig struct {
	Procs int
	N     int
	Sets  int
	// Scales are the per-parameter multipliers of the sweep grid. Powers of
	// two keep the analytic re-cost bitwise equal to a fresh simulation
	// (scaling by 2^k is exact in IEEE-754), which is what lets the
	// cross-checks demand exact equality instead of a tolerance.
	Scales []float64
	// CheckEvery cross-checks every k-th grid job against a full
	// re-simulation (0: no cross-checks).
	CheckEvery int
	// ChaosSeed/ChaosProfile name the fault plan of the chaotic capture.
	ChaosSeed    uint64
	ChaosProfile string
	// SearchScales are the cost variants of the replay-first mapping
	// search: for each, FFT-Hist cost tables are built through the store
	// and the optimizer picks the latency-optimal mapping.
	SearchScales []float64
	// Workers bounds host parallelism (0 = GOMAXPROCS); Engine selects the
	// execution engine (nil: package default); StoreDir persists the
	// skeleton store on disk ("" = in-process). None of them changes a
	// deterministic report field.
	Workers  int
	Engine   machine.Engine
	StoreDir string
}

// DefaultReplay captures a 16-processor three-stage pipeline and sweeps a
// 4-parameter power-of-two grid.
func DefaultReplay() ReplayConfig {
	return ReplayConfig{
		Procs:        16,
		N:            64,
		Sets:         6,
		Scales:       []float64{0.25, 0.5, 1, 2, 4},
		CheckEvery:   4,
		ChaosSeed:    42,
		ChaosProfile: "flaky",
		SearchScales: []float64{1, 2, 4},
	}
}

// QuickReplay is a reduced variant.
func QuickReplay() ReplayConfig {
	cfg := DefaultReplay()
	cfg.Procs, cfg.N, cfg.Sets = 8, 32, 4
	cfg.Scales = []float64{0.5, 1, 2}
	cfg.SearchScales = []float64{1, 2}
	return cfg
}

// replayParams are the swept machine parameters. "netscale" is a uniform
// wire-time multiplier (skeleton.Params.NetScale); the others scale one
// sim.CostModel field.
var replayParams = []string{"alpha", "beta", "floprate", "netscale"}

// ReplayGridPoint is one campaign job: one analytic re-cost of the stored
// skeleton under one scaled machine parameter.
type ReplayGridPoint struct {
	Param    string
	Scale    float64
	Makespan float64
}

// ReplayCheck is one sampled grid job re-simulated at the same parameters.
// Exact records bitwise equality — the campaign's correctness currency; a
// false here is a Mismatch.
type ReplayCheck struct {
	Param  string
	Scale  float64
	Recost float64
	Sim    float64
	Exact  bool
}

// ReplaySearchRow is one cost variant of the replay-first mapping search.
type ReplaySearchRow struct {
	// Variant labels the machine ("base", "alpha x2", ...).
	Variant string
	// Best is the latency-optimal mapping the optimizer chose from the
	// replay-built tables.
	Best string
	// Latency is the model-predicted latency of that mapping.
	Latency float64
}

// ReplayBench is the campaign report. All fields except the Host* block are
// deterministic.
type ReplayBench struct {
	Name  string
	Procs int
	N     int
	Sets  int
	// SkeletonKey/Ops identify the healthy capture; Baseline is its
	// recorded makespan and IdentityExact whether re-costing at recorded
	// parameters reproduced it bitwise (false = determinism regression).
	SkeletonKey   string
	SkeletonOps   int
	Baseline      float64
	IdentityExact bool
	// Chaos identifies the chaotic capture ("seed:profile"). The chaotic
	// skeleton lives under its own store key — ChaosDistinctKey must be
	// true — and replays exactly at identity (ChaosIdentityExact).
	Chaos              string
	ChaosBaseline      float64
	ChaosIdentityExact bool
	ChaosDistinctKey   bool
	// Grid is the sweep, param-major, scale-minor; Checks the sampled
	// cross-checks; Mismatches counts inexact checks (must be zero).
	Grid       []ReplayGridPoint
	Checks     []ReplayCheck
	Mismatches int
	// Search is the replay-first mapping search across cost variants.
	Search []ReplaySearchRow
	// Store counters: how much simulation the store displaced. With a cold
	// store these are a pure function of the config.
	StoreMemoryHits int64
	StoreDiskHits   int64
	StoreCaptures   int64
	// Host-time throughput of replayed campaign jobs vs live-simulated
	// ones, and their ratio — the campaign's payoff measurement.
	// Host-dependent: zeroed before the golden comparison.
	HostReplaysPerSecond float64
	HostSimsPerSecond    float64
	HostSpeedup          float64
	HostSeconds          float64
}

// replayCost returns the campaign cost model with one parameter scaled;
// "netscale" is expressed through Params.NetScale instead, so the cost is
// returned unchanged.
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
		panic("experiments: unknown replay parameter " + param)
	}
	return c, skeleton.Params{Cost: &c}
}

// simCost returns the cost model a live simulation needs to reproduce one
// grid point. A net scale s multiplies every wire time, which a simulation
// expresses by scaling alpha, beta and per-hop together (exact for
// power-of-two s).
func simCost(base sim.CostModel, param string, scale float64) sim.CostModel {
	if param != "netscale" {
		c, _ := replayCost(base, param, scale)
		return c
	}
	c := base
	c.Alpha *= scale
	c.Beta *= scale
	c.PerHop *= scale
	return c
}

// Replay runs the campaign: capture once (healthy and chaotic), replay
// everywhere, cross-check a sample, then drive a mapping search through the
// store.
func Replay(cfg ReplayConfig) (*ReplayBench, error) {
	base := sim.Paragon()
	appCfg := ffthist.Config{N: cfg.N, Sets: cfg.Sets, Bins: 64}
	mp := chaosMapping(cfg.Procs)
	store := skeleton.NewStore(cfg.StoreDir)
	prof, err := fault.ProfileByName(cfg.ChaosProfile)
	if err != nil {
		return nil, err
	}
	plan := fault.New(cfg.ChaosSeed, prof)

	rep := &ReplayBench{
		Name: "replay-ffthist", Procs: cfg.Procs, N: cfg.N, Sets: cfg.Sets,
		Chaos: plan.String(),
	}

	// capture runs one live traced pipeline simulation under fp.
	capture := func(fp machine.FaultPlan) func() (*skeleton.Skeleton, error) {
		return func() (*skeleton.Skeleton, error) {
			m := newMachine(cfg.Procs, base, cfg.Engine, fp)
			sink := skeleton.NewSink(base, chaosLabel(fp))
			m.SetTracer(sink)
			ffthist.Run(m, appCfg, mp)
			return sink.Skeleton()
		}
	}
	pipelineKey := func(chaos string) skeleton.StoreKey {
		return skeleton.StoreKey{
			App:     "ffthist.pipeline",
			Params:  fmt.Sprintf("N=%d,Sets=%d,Bins=%d", cfg.N, cfg.Sets, appCfg.Bins),
			Mapping: fmt.Sprintf("%+v", mp),
			P:       cfg.Procs,
			Chaos:   chaos,
			Cost:    base,
		}
	}

	// Healthy capture: one traced run populates the store; every campaign
	// job after this line is an analytic DAG evaluation.
	healthyKey := pipelineKey("")
	sk, _, err := store.GetOrCapture(healthyKey, capture(nil))
	if err != nil {
		return nil, err
	}
	skey, err := sk.Key()
	if err != nil {
		return nil, err
	}
	rep.SkeletonKey, rep.SkeletonOps, rep.Baseline = skey, sk.Ops(), sk.Makespan
	identity, err := sk.Recost(skeleton.Params{})
	if err != nil {
		return nil, err
	}
	rep.IdentityExact = identity == sk.Makespan

	// Chaotic capture: same scenario under the fault plan. The plan's
	// identity is part of the store key, so the two skeletons never alias;
	// replay at identity is exact because the baked-in fault schedule is
	// part of the recorded DAG.
	chaosKey := pipelineKey(plan.String())
	csk, _, err := store.GetOrCapture(chaosKey, capture(plan.Machine()))
	if err != nil {
		return nil, err
	}
	rep.ChaosDistinctKey = chaosKey.Key() != healthyKey.Key()
	rep.ChaosBaseline = csk.Makespan
	cid, err := csk.Recost(skeleton.Params{})
	if err != nil {
		return nil, err
	}
	rep.ChaosIdentityExact = cid == csk.Makespan

	// The sweep: every job consults the store and re-costs analytically.
	// Param-major, scale-minor — a deterministic order for every -j.
	type cell struct {
		param string
		scale float64
	}
	var cells []cell
	for _, p := range replayParams {
		for _, s := range cfg.Scales {
			cells = append(cells, cell{p, s})
		}
	}
	grid := sweep.MapNamed("replay-grid", cfg.Workers, len(cells), func(i int) (ReplayGridPoint, error) {
		ssk, _, ok := store.Get(healthyKey)
		if !ok {
			return ReplayGridPoint{}, fmt.Errorf("experiments: skeleton store lost the campaign capture")
		}
		_, p := replayCost(base, cells[i].param, cells[i].scale)
		mk, err := ssk.Recost(p)
		if err != nil {
			return ReplayGridPoint{}, err
		}
		return ReplayGridPoint{Param: cells[i].param, Scale: cells[i].scale, Makespan: mk}, nil
	})
	for _, r := range grid {
		if r.Err != nil {
			return nil, r.Err
		}
		rep.Grid = append(rep.Grid, r.Value)
	}

	// Cross-checks: every CheckEvery-th grid job re-simulated at the same
	// parameters. Power-of-two scales make the analytic re-cost perform the
	// exact rounding a fresh simulation performs, so the comparison is
	// bitwise, not approximate.
	if cfg.CheckEvery > 0 {
		for i := 0; i < len(cells); i += cfg.CheckEvery {
			c := simCost(base, cells[i].param, cells[i].scale)
			res := ffthist.Run(newMachine(cfg.Procs, c, cfg.Engine, nil), appCfg, mp)
			simMk := res.Stats.MakespanTime()
			re := rep.Grid[i].Makespan
			chk := ReplayCheck{Param: cells[i].param, Scale: cells[i].scale,
				Recost: re, Sim: simMk, Exact: re == simMk}
			if !chk.Exact {
				rep.Mismatches++
			}
			rep.Checks = append(rep.Checks, chk)
		}
	}

	// Replay-first mapping search: cost tables for each machine variant are
	// built through the store — one traced simulation per stage cell at the
	// base model, analytic re-costs for every other variant — and the
	// optimizer picks the latency-optimal mapping per variant.
	ropt := &mapping.ReplayOptions{Store: store, Base: base}
	for _, s := range cfg.SearchScales {
		variant := base
		variant.Alpha *= s
		variant.Beta *= s
		label := "base"
		if s != 1 {
			label = fmt.Sprintf("comm x%g", s)
		}
		model, _, err := ffthist.MeasuredModel(variant, appCfg, cfg.Procs,
			mapping.BuildOptions{Workers: cfg.Workers, Engine: cfg.Engine, Replay: ropt})
		if err != nil {
			return nil, err
		}
		choice, err := mapping.Optimize(model, 0)
		if err != nil {
			return nil, err
		}
		rep.Search = append(rep.Search, ReplaySearchRow{
			Variant: label, Best: choice.String(), Latency: choice.PredLatency})
	}

	stats := store.Stats()
	rep.StoreMemoryHits, rep.StoreDiskHits, rep.StoreCaptures = stats.Memory, stats.Disk, stats.Captured

	// Host-time throughput: replayed campaign jobs vs live-simulated ones.
	// The ratio is the backend's payoff — the acceptance bar is >= 20x.
	const replayReps, simReps = 64, 4
	t0 := time.Now()
	for i := 0; i < replayReps; i++ {
		_, p := replayCost(base, replayParams[i%len(replayParams)], 2)
		if _, err := sk.Recost(p); err != nil {
			return nil, err
		}
	}
	replayDur := time.Since(t0)
	t1 := time.Now()
	for i := 0; i < simReps; i++ {
		ffthist.Run(newMachine(cfg.Procs, base, cfg.Engine, nil), appCfg, mp)
	}
	simDur := time.Since(t1)
	if replayDur > 0 {
		rep.HostReplaysPerSecond = replayReps / replayDur.Seconds()
	}
	if simDur > 0 {
		rep.HostSimsPerSecond = simReps / simDur.Seconds()
	}
	if rep.HostSimsPerSecond > 0 {
		rep.HostSpeedup = rep.HostReplaysPerSecond / rep.HostSimsPerSecond
	}
	rep.HostSeconds = time.Since(t0).Seconds()
	return rep, nil
}

// WriteText prints the campaign report; the layout is deterministic apart
// from the final host-throughput block.
func (r *ReplayBench) WriteText(w io.Writer) {
	fmt.Fprintf(w, "=== %s: P=%d N=%d Sets=%d ===\n", r.Name, r.Procs, r.N, r.Sets)
	fmt.Fprintf(w, "skeleton %s, %d ops, baseline makespan %.6f s\n", r.SkeletonKey, r.SkeletonOps, r.Baseline)
	if r.IdentityExact {
		fmt.Fprintf(w, "determinism: replay at recorded parameters reproduces the makespan exactly\n")
	} else {
		fmt.Fprintf(w, "determinism: VIOLATED — replay at recorded parameters deviates\n")
	}
	fmt.Fprintf(w, "chaos capture %s: makespan %.6f s, identity exact: %v, distinct store key: %v\n",
		r.Chaos, r.ChaosBaseline, r.ChaosIdentityExact, r.ChaosDistinctKey)
	fmt.Fprintf(w, "\nreplay grid (scaled machine parameters, no re-simulation):\n")
	for _, g := range r.Grid {
		fmt.Fprintf(w, "  %-8s x%-6g -> %.6f s\n", g.Param, g.Scale, g.Makespan)
	}
	fmt.Fprintf(w, "\ncross-checks (re-simulated, bitwise):\n")
	for _, c := range r.Checks {
		verdict := "exact"
		if !c.Exact {
			verdict = "MISMATCH"
		}
		fmt.Fprintf(w, "  %-8s x%-6g replay %.6f s, sim %.6f s: %s\n",
			c.Param, c.Scale, c.Recost, c.Sim, verdict)
	}
	fmt.Fprintf(w, "mismatches: %d\n", r.Mismatches)
	fmt.Fprintf(w, "\nreplay-first mapping search (tables from the skeleton store):\n")
	for _, s := range r.Search {
		fmt.Fprintf(w, "  %-10s best %-16s latency %.6f s\n", s.Variant, s.Best, s.Latency)
	}
	fmt.Fprintf(w, "\nstore: %d memory hits, %d disk hits, %d captures\n",
		r.StoreMemoryHits, r.StoreDiskHits, r.StoreCaptures)
	fmt.Fprintf(w, "host throughput: %.0f replayed jobs/s vs %.1f live sims/s (%.0fx, %.2fs total)\n",
		r.HostReplaysPerSecond, r.HostSimsPerSecond, r.HostSpeedup, r.HostSeconds)
}
