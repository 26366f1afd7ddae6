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
func measureKey(a *appAdapter, mp mapping.Mapping, p int, chaos string, cost sim.CostModel) string {
	return skeleton.StoreKey{
		App:     "serve." + a.Name,
		Params:  a.Params,
		Mapping: mp.String(),
		P:       p,
		Chaos:   chaos,
		Cost:    cost,
	}.Key()
}
