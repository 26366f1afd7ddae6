package experiments

import (
	"errors"
	"maps"
	"slices"

	"fxpar/internal/fault"
	"fxpar/internal/sim"
	"fxpar/internal/sweep"
)

// ChaosConfig scopes a chaos campaign: the scenario fanned across Seeds
// decorrelated fault seeds (derived from Base; see fault.Seeds), each run
// verified bin-for-bin against the healthy run's histograms. The whole
// report is deterministic, so it doubles as a committable benchmark
// artifact.
type ChaosConfig struct {
	Scenario
	Seeds int
	Base  uint64
	Prof  fault.Profile
}

// DefaultChaos exercises every fault class (havoc: delays, drops, dups,
// slowdowns, and kills) on the default scenario across 16 seeds.
func DefaultChaos() ChaosConfig {
	prof, _ := fault.ProfileByName("havoc")
	return ChaosConfig{Scenario: defaultScenario, Seeds: 16, Base: 1, Prof: prof}
}

// QuickChaos is a reduced variant.
func QuickChaos() ChaosConfig {
	cfg := DefaultChaos()
	cfg.Procs, cfg.N, cfg.Seeds = 8, 32, 8
	return cfg
}

// Chaos runs the campaign: a healthy reference run first (its histograms are
// the correctness oracle and its makespan the degradation baseline), then
// one run per seed under cfg.Prof. Every chaotic run either matches the
// reference output exactly — non-lethal faults perturb timing, never results
// — or fails with a typed error (a processor-death cascade); runs never
// hang, so the campaign always terminates with a full report.
func Chaos(cfg ChaosConfig) sweep.ChaosReport {
	cost := sim.Paragon()
	healthy := cfg.run(cost, nil, nil)
	return sweep.ChaosCampaign("chaos-"+cfg.Prof.Name, cfg.Workers, cfg.Prof, cfg.Base, cfg.Seeds,
		healthy.Makespan, func(pl *fault.Plan) (float64, error) {
			res := cfg.run(cost, pl.Machine(), nil)
			if !maps.EqualFunc(healthy.Hists, res.Hists, slices.Equal[[]int64]) {
				return 0, errors.New("chaos: histograms differ from the healthy run's (chaos corrupted output)")
			}
			return res.Makespan, nil
		})
}
