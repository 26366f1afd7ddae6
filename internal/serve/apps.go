package serve

// Wire requests resolve to the sensor-program campaigns the rest of the repo
// already knows how to run (internal/apps/sensor): the program at its paper or
// quick size, plus the content-keyed table spec of its cost model. That spec
// key — the same key mapping.BuildTables memoizes under — is what request
// dedupe hangs off, so "same campaign" means exactly "same cost tables" with
// no second definition to drift.

import (
	"fmt"

	"fxpar/internal/apps/sensor"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
)

// MappingSpec is the wire shape of an explicit mapping. The zero value means
// "data-parallel on all processors".
type MappingSpec = sensor.Mapping

func isZero(ms MappingSpec) bool {
	return ms.Modules == 0 && len(ms.Stages) == 0 && ms.WideModules == 0 && len(ms.WideStages) == 0
}

// usesProcs totals the processors the spec occupies.
func usesProcs(ms MappingSpec) int {
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
func validate(ms MappingSpec, nStages, p int) error {
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
	if u := usesProcs(ms); u > p {
		return fmt.Errorf("mapping: uses %d processors but the machine has %d", u, p)
	}
	return nil
}

// appAdapter is one resolved request: the program and the content key its
// model tables memoize under.
type appAdapter struct {
	sensor.App
	spec mapping.TableSpec
}

func newMachine(p int, cost sim.CostModel, eng machine.Engine, fp machine.FaultPlan) *machine.Machine {
	m := machine.New(p, cost)
	m.SetEngine(eng)
	m.SetFaults(fp)
	return m
}

// resolveApp resolves (app, p, sets, quick) to its program and table spec.
// It runs on every request, dedupe hits included, so it builds the key and
// nothing else (TestResolveAppAllocs).
func resolveApp(app string, p, sets int, quick bool, cost sim.CostModel, replay *mapping.ReplayOptions) (*appAdapter, error) {
	if p < 1 {
		return nil, fmt.Errorf("p must be >= 1")
	}
	if sets < 1 {
		return nil, fmt.Errorf("sets must be >= 1")
	}
	a, err := sensor.ByName(app, quick, sets, 0)
	if err != nil {
		return nil, err
	}
	return &appAdapter{App: a, spec: a.Spec(cost, p, mapping.BuildOptions{Replay: replay})}, nil
}

// measureKey renders the measure request's content key. It reuses
// skeleton.StoreKey as the canonical renderer — the store's notion of "the
// same recorded run" is exactly what makes two measure requests the same
// campaign.
func measureKey(a *appAdapter, ms MappingSpec, p int, chaos string, cost sim.CostModel) string {
	return skeleton.StoreKey{
		App:     "serve." + a.Name,
		Params:  a.Params,
		Mapping: a.MappingString(ms),
		P:       p,
		Chaos:   chaos,
		Cost:    cost,
	}.Key()
}
