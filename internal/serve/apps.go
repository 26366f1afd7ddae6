package serve

// The app adapters translate wire requests into the sensor-program
// campaigns the rest of the repo already knows how to run: each adapter
// owns one application's config resolution, content-keyed table spec,
// model build and simulated runs. The adapter's spec key — the same key
// mapping.BuildTables memoizes under — is what request dedupe hangs off,
// so "same campaign" means exactly "same cost tables" with no second
// definition to drift.

import (
	"fmt"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/apps/radar"
	"fxpar/internal/apps/stereo"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
)

// MappingSpec is the wire shape of an explicit mapping (see the app Mapping
// types it mirrors). The zero value means "data-parallel on all processors".
type MappingSpec struct {
	Modules     int   `json:"modules,omitempty"`
	Stages      []int `json:"stages,omitempty"`
	WideModules int   `json:"wideModules,omitempty"`
	WideStages  []int `json:"wideStages,omitempty"`
}

func (ms MappingSpec) isZero() bool {
	return ms.Modules == 0 && len(ms.Stages) == 0 && ms.WideModules == 0 && len(ms.WideStages) == 0
}

// usesProcs totals the processors the spec occupies.
func (ms MappingSpec) usesProcs() int {
	sum := func(procs []int) int {
		s := 0
		for _, p := range procs {
			s += p
		}
		return s
	}
	return sum(ms.Stages)*(ms.Modules-ms.WideModules) + sum(ms.WideStages)*ms.WideModules
}

// validate checks the spec against an app with nStages pipeline stages on a
// p-processor machine.
func (ms MappingSpec) validate(nStages, p int) error {
	if ms.Modules < 1 {
		return fmt.Errorf("mapping: modules must be >= 1")
	}
	if len(ms.Stages) != 1 && len(ms.Stages) != nStages {
		return fmt.Errorf("mapping: want 1 (data-parallel) or %d stage entries, got %d", nStages, len(ms.Stages))
	}
	for _, n := range ms.Stages {
		if n < 1 {
			return fmt.Errorf("mapping: stage processor counts must be >= 1")
		}
	}
	if ms.WideModules < 0 || ms.WideModules > ms.Modules {
		return fmt.Errorf("mapping: wideModules must be in [0, modules]")
	}
	if ms.WideModules > 0 {
		if len(ms.WideStages) != len(ms.Stages) {
			return fmt.Errorf("mapping: wideStages must match stages in length")
		}
		for _, n := range ms.WideStages {
			if n < 1 {
				return fmt.Errorf("mapping: wide stage processor counts must be >= 1")
			}
		}
	} else if len(ms.WideStages) != 0 {
		return fmt.Errorf("mapping: wideStages set but wideModules is 0")
	}
	if u := ms.usesProcs(); u > p {
		return fmt.Errorf("mapping: uses %d processors but the machine has %d", u, p)
	}
	return nil
}

// runOut is the simulated outcome every adapter run reports.
type runOut struct {
	Throughput float64
	Latency    float64
	Makespan   float64
}

// appAdapter binds one application's campaign operations. All simulated
// numbers are deterministic in virtual time — pure functions of
// (app, params, P, mapping) — which is what makes responses cacheable and
// byte-identical across duplicate requests.
type appAdapter struct {
	name    string
	params  string            // canonical parameter rendering (for keys and responses)
	spec    mapping.TableSpec // the content key model tables memoize under
	nStages int
	dpCap   int // data-parallel width cap (min(P, rows the app distributes over))

	model      func(opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error)
	runChoice  func(eng machine.Engine, fp machine.FaultPlan, c mapping.Choice) runOut
	runDP      func(eng machine.Engine, fp machine.FaultPlan) runOut
	runMapping func(eng machine.Engine, fp machine.FaultPlan, ms MappingSpec) runOut
	mappingStr func(ms MappingSpec) string
}

func newMachine(p int, cost sim.CostModel, eng machine.Engine, fp machine.FaultPlan) *machine.Machine {
	m := machine.New(p, cost)
	m.SetEngine(eng)
	m.SetFaults(fp)
	return m
}

// resolveApp builds the adapter for (app, p, sets, quick). Quick sizes
// mirror experiments.QuickTable1: same structure, reduced data so a request
// answers in well under a second.
func resolveApp(app string, p, sets int, quick bool, cost sim.CostModel, replay *mapping.ReplayOptions) (*appAdapter, error) {
	if p < 1 {
		return nil, fmt.Errorf("p must be >= 1")
	}
	if sets < 1 {
		return nil, fmt.Errorf("sets must be >= 1")
	}
	buildOpt := mapping.BuildOptions{Replay: replay}
	switch app {
	case "ffthist":
		n := 256
		if quick {
			n = 32
		}
		cfg := ffthist.Config{N: n, Sets: sets, Bins: 64}
		a := &appAdapter{
			name:   "ffthist",
			params: fmt.Sprintf("N=%d,Bins=%d,Sets=%d", cfg.N, cfg.Bins, cfg.Sets),
			spec:   ffthist.Spec(cost, cfg, p, buildOpt),
			dpCap:  min(p, cfg.N),
		}
		a.nStages = len(a.spec.Stages)
		a.model = func(opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
			return ffthist.MeasuredModel(cost, cfg, p, opt)
		}
		run := func(eng machine.Engine, fp machine.FaultPlan, mp ffthist.Mapping) runOut {
			res := ffthist.Run(newMachine(p, cost, eng, fp), cfg, mp)
			return runOut{res.Stream.Throughput, res.Stream.Latency, res.Makespan}
		}
		a.runChoice = func(eng machine.Engine, fp machine.FaultPlan, c mapping.Choice) runOut {
			return run(eng, fp, ffthist.ChoiceToMapping(c))
		}
		a.runDP = func(eng machine.Engine, fp machine.FaultPlan) runOut {
			return run(eng, fp, ffthist.DataParallel(a.dpCap))
		}
		a.runMapping = func(eng machine.Engine, fp machine.FaultPlan, ms MappingSpec) runOut {
			return run(eng, fp, ffthist.Mapping{Modules: ms.Modules, Stages: ms.Stages, WideModules: ms.WideModules, WideStages: ms.WideStages})
		}
		a.mappingStr = func(ms MappingSpec) string {
			return ffthist.Mapping{Modules: ms.Modules, Stages: ms.Stages, WideModules: ms.WideModules, WideStages: ms.WideStages}.String()
		}
		return a, nil
	case "radar":
		cfg := radar.DefaultConfig()
		if quick {
			cfg = radar.Config{Gates: 64, Rows: 8, Scale: 1.0 / 64, Threshold: 0.05}
		}
		cfg.Sets = sets
		a := &appAdapter{
			name:   "radar",
			params: fmt.Sprintf("Gates=%d,Rows=%d,Scale=%g,Thr=%g,Sets=%d", cfg.Gates, cfg.Rows, cfg.Scale, cfg.Threshold, cfg.Sets),
			spec:   radar.Spec(cost, cfg, p, buildOpt),
			dpCap:  min(p, cfg.Rows),
		}
		a.nStages = len(a.spec.Stages)
		a.model = func(opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
			return radar.MeasuredModel(cost, cfg, p, opt)
		}
		run := func(eng machine.Engine, fp machine.FaultPlan, mp radar.Mapping) runOut {
			res := radar.Run(newMachine(p, cost, eng, fp), cfg, mp)
			return runOut{res.Stream.Throughput, res.Stream.Latency, res.Makespan}
		}
		a.runChoice = func(eng machine.Engine, fp machine.FaultPlan, c mapping.Choice) runOut {
			return run(eng, fp, radar.ChoiceToMapping(c))
		}
		a.runDP = func(eng machine.Engine, fp machine.FaultPlan) runOut {
			return run(eng, fp, radar.DataParallel(a.dpCap))
		}
		a.runMapping = func(eng machine.Engine, fp machine.FaultPlan, ms MappingSpec) runOut {
			return run(eng, fp, radar.Mapping{Modules: ms.Modules, Stages: ms.Stages, WideModules: ms.WideModules, WideStages: ms.WideStages})
		}
		a.mappingStr = func(ms MappingSpec) string {
			return radar.Mapping{Modules: ms.Modules, Stages: ms.Stages, WideModules: ms.WideModules, WideStages: ms.WideStages}.String()
		}
		return a, nil
	case "stereo":
		cfg := stereo.DefaultConfig()
		if quick {
			cfg = stereo.Config{W: 64, H: 24, Disparities: 8, Window: 2}
		}
		cfg.Sets = sets
		a := &appAdapter{
			name:   "stereo",
			params: fmt.Sprintf("W=%d,H=%d,D=%d,Win=%d,Sets=%d", cfg.W, cfg.H, cfg.Disparities, cfg.Window, cfg.Sets),
			spec:   stereo.Spec(cost, cfg, p, buildOpt),
			dpCap:  min(p, cfg.H),
		}
		a.nStages = len(a.spec.Stages)
		a.model = func(opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
			return stereo.MeasuredModel(cost, cfg, p, opt)
		}
		run := func(eng machine.Engine, fp machine.FaultPlan, mp stereo.Mapping) runOut {
			res := stereo.Run(newMachine(p, cost, eng, fp), cfg, mp)
			return runOut{res.Stream.Throughput, res.Stream.Latency, res.Makespan}
		}
		a.runChoice = func(eng machine.Engine, fp machine.FaultPlan, c mapping.Choice) runOut {
			return run(eng, fp, stereo.ChoiceToMapping(c))
		}
		a.runDP = func(eng machine.Engine, fp machine.FaultPlan) runOut {
			return run(eng, fp, stereo.DataParallel(a.dpCap))
		}
		a.runMapping = func(eng machine.Engine, fp machine.FaultPlan, ms MappingSpec) runOut {
			return run(eng, fp, stereo.Mapping{Modules: ms.Modules, Stages: ms.Stages, WideModules: ms.WideModules, WideStages: ms.WideStages})
		}
		a.mappingStr = func(ms MappingSpec) string {
			return stereo.Mapping{Modules: ms.Modules, Stages: ms.Stages, WideModules: ms.WideModules, WideStages: ms.WideStages}.String()
		}
		return a, nil
	}
	return nil, fmt.Errorf("unknown app %q (have: ffthist, radar, stereo)", app)
}

// measureKey renders the measure request's content key. It reuses
// skeleton.StoreKey as the canonical renderer — the store's notion of "the
// same recorded run" is exactly what makes two measure requests the same
// campaign.
func measureKey(a *appAdapter, ms MappingSpec, p int, chaos string, cost sim.CostModel) string {
	return skeleton.StoreKey{
		App:     "serve." + a.name,
		Params:  a.params,
		Mapping: a.mappingStr(ms),
		P:       p,
		Chaos:   chaos,
		Cost:    cost,
	}.Key()
}
