package experiments

import (
	"fmt"
	"io"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/fault"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
)

// ReplayConfig scopes a skeleton-replay campaign. The scenario is captured
// once into the skeleton store, healthy and under one deterministic fault
// plan; a grid of jobs that each scale one machine parameter is answered by
// analytic DAG evaluation against the store instead of re-simulation, and a
// sample of jobs is re-simulated and must match bitwise. A replay-first
// mapping search through the store closes the campaign. Everything but the
// Host* fields is a pure function of the config minus StoreDir, so the
// report is a committable golden (testdata/replay.golden.json).
type ReplayConfig struct {
	Scenario
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
	// StoreDir persists the skeleton store on disk ("" = in-process).
	StoreDir string
}

// DefaultReplay captures the default scenario and sweeps a 4-parameter
// power-of-two grid.
func DefaultReplay() ReplayConfig {
	return ReplayConfig{
		Scenario:     defaultScenario,
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

// replayParams are the swept machine parameters (see replayCost).
var replayParams = []string{"alpha", "beta", "floprate", "netscale"}

// ReplayCheck is one sampled grid job re-simulated at the same parameters.
// Exact records bitwise equality — the campaign's correctness currency; a
// false here is a Mismatch.
type ReplayCheck struct {
	crossCheck
	Exact bool
}

// ReplaySearchRow is one cost variant of the replay-first mapping search:
// the machine's label ("base", "comm x2", ...), the latency-optimal mapping
// the optimizer chose from the replay-built tables, and its predicted
// latency.
type ReplaySearchRow struct {
	Variant string
	Best    string
	Latency float64
}

// ReplayBench is the campaign report. All fields except the Host* block are
// deterministic.
type ReplayBench struct {
	skeletonHead
	// Chaos identifies the chaotic capture ("seed:profile"). The chaotic
	// skeleton lives under its own store key — ChaosDistinctKey must be
	// true — and replays exactly at identity (ChaosIdentityExact).
	Chaos              string
	ChaosBaseline      float64
	ChaosIdentityExact bool
	ChaosDistinctKey   bool
	// Grid is the sweep, param-major, scale-minor; Checks the sampled
	// cross-checks; Mismatches counts inexact checks (must be zero).
	Grid       []GridPoint
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

// Replay runs the campaign: capture once (healthy and chaotic), replay
// everywhere, cross-check a sample, then drive a mapping search through the
// store.
func Replay(cfg ReplayConfig) (*ReplayBench, error) {
	base := sim.Paragon()
	store := skeleton.NewStore(cfg.StoreDir)
	prof, err := fault.ProfileByName(cfg.ChaosProfile)
	if err != nil {
		return nil, err
	}
	plan := fault.New(cfg.ChaosSeed, prof)

	rep := &ReplayBench{Chaos: plan.String()}
	pipelineKey := func(chaos string) skeleton.StoreKey {
		return skeleton.StoreKey{
			App:     "ffthist.pipeline",
			Params:  fmt.Sprintf("N=%d,Sets=%d,Bins=%d", cfg.N, cfg.Sets, cfg.app().Bins),
			Mapping: fmt.Sprintf("%+v", cfg.mapping()),
			P:       cfg.Procs,
			Chaos:   chaos,
			Cost:    base,
		}
	}

	// Healthy capture: one traced run populates the store; every campaign
	// job after this line is an analytic DAG evaluation.
	healthyKey := pipelineKey("")
	sk, _, err := store.GetOrCapture(healthyKey, func() (*skeleton.Skeleton, error) { return cfg.capture(nil) })
	if err != nil {
		return nil, err
	}
	if rep.skeletonHead, err = cfg.head("replay-ffthist", sk); err != nil {
		return nil, err
	}

	// Chaotic capture: same scenario under the fault plan. The plan's
	// identity is part of the store key, so the two skeletons never alias;
	// replay at identity is exact because the baked-in fault schedule is
	// part of the recorded DAG.
	chaosKey := pipelineKey(plan.String())
	csk, _, err := store.GetOrCapture(chaosKey, func() (*skeleton.Skeleton, error) { return cfg.capture(plan.Machine()) })
	if err != nil {
		return nil, err
	}
	chaosIdentity, err := csk.Recost(skeleton.Params{})
	if err != nil {
		return nil, err
	}
	rep.ChaosBaseline, rep.ChaosIdentityExact = csk.Makespan, chaosIdentity == csk.Makespan
	rep.ChaosDistinctKey = chaosKey.Key() != healthyKey.Key()

	// The sweep: every job consults the store and re-costs analytically.
	rep.Grid, err = cfg.recostGrid("replay-grid", replayParams, cfg.Scales, func() (*skeleton.Skeleton, error) {
		ssk, _, ok := store.Get(healthyKey)
		if !ok {
			return nil, fmt.Errorf("experiments: skeleton store lost the campaign capture")
		}
		return ssk, nil
	})
	if err != nil {
		return nil, err
	}

	// Cross-checks: every CheckEvery-th grid job re-simulated at the same
	// parameters. Power-of-two scales make the analytic re-cost perform the
	// exact rounding a fresh simulation performs, so the comparison is
	// bitwise, not approximate.
	for i := 0; cfg.CheckEvery > 0 && i < len(rep.Grid); i += cfg.CheckEvery {
		chk := ReplayCheck{crossCheck: cfg.resimulate(rep.Grid[i])}
		if chk.Exact = chk.Recost == chk.Sim; !chk.Exact {
			rep.Mismatches++
		}
		rep.Checks = append(rep.Checks, chk)
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
		model, _, err := ffthist.MeasuredModel(variant, cfg.app(), cfg.Procs,
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

	// The acceptance bar on the host speedup is >= 20x.
	rep.HostReplaysPerSecond, rep.HostSimsPerSecond, rep.HostSeconds, err = cfg.hostThroughput(sk, replayParams)
	if err != nil {
		return nil, err
	}
	if rep.HostSimsPerSecond > 0 {
		rep.HostSpeedup = rep.HostReplaysPerSecond / rep.HostSimsPerSecond
	}
	return rep, nil
}

// WriteText prints the campaign report; the layout is deterministic apart
// from the final host-throughput block.
func (r *ReplayBench) WriteText(w io.Writer) {
	r.skeletonHead.writeText(w, "replay")
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
