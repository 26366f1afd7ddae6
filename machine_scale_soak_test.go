// TestMachineScaleSoak is the end-to-end determinism soak for the machine
// core at scale: the machine-tier FFT-Hist workload runs traced (under the
// scale tier's deterministic 1-in-64 sampler) on every engine — goroutine,
// coop:1, coop:4 — and the kept event streams, per-processor run statistics,
// histograms and makespans must be byte-identical. The engines differ only in
// host scheduling; virtual time is the machine's, so any divergence is a
// machine-core bug, not noise.
//
// The always-on tier runs at P=4096 so `go test ./...` carries the check.
// Under FXPAR_SCALE_SOAK=1 the same comparison runs at P=65536 (the tentpole
// soak size) and a P=1048576 untraced coop:1 run must reproduce the tier's
// makespan exactly — the replicated-module workload makes virtual makespan
// P-invariant, so one number pins the million-processor run to the small ones.
package fxpar_test

import (
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
	"fxpar/internal/trace"
)

const machineSoakProcs = 1 << 20

// machineRun runs the machine-tier workload untraced under the given engine.
func machineRun(procs int, eng machine.Engine) ffthist.Result {
	cfg, mp := scaleWorkload(procs, machineSetsPerModule)
	m := machine.New(procs, sim.Paragon())
	m.SetEngine(eng)
	return ffthist.Run(m, cfg, mp)
}

// soakCollector is a minimal concurrent tracer: it keeps every kept event so
// the streams can be canonicalised and compared across engines.
type soakCollector struct {
	mu  sync.Mutex
	evs []machine.Event
}

func (c *soakCollector) Record(e machine.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, e)
	c.mu.Unlock()
}

// soakRun runs the machine-tier workload traced under the scale sampler and
// returns the app result plus the kept events in canonical (Proc, Seq) order.
// Arrival order at the collector is host-dependent; content is not.
func soakRun(t *testing.T, procs int, eng machine.Engine) (ffthist.Result, []machine.Event) {
	t.Helper()
	scfg, err := trace.ParseSampleSpec(scaleSampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, mp := scaleWorkload(procs, machineSetsPerModule)
	m := machine.New(procs, sim.Paragon())
	m.SetEngine(eng)
	col := &soakCollector{}
	m.SetTracer(col)
	m.SetSampler(trace.NewSampler(procs, scfg))
	res := ffthist.Run(m, cfg, mp)
	sort.Slice(col.evs, func(i, j int) bool {
		if col.evs[i].Proc != col.evs[j].Proc {
			return col.evs[i].Proc < col.evs[j].Proc
		}
		return col.evs[i].Seq < col.evs[j].Seq
	})
	return res, col.evs
}

// soakCompare runs the workload at one P on all three engines and requires
// identical results everywhere, returning the (shared) makespan.
func soakCompare(t *testing.T, procs int) float64 {
	t.Helper()
	type engCase struct {
		name string
		eng  machine.Engine
	}
	cases := []engCase{
		{"goroutine", machine.Goroutine()},
		{"coop:1", machine.Coop(1)},
		{"coop:4", machine.Coop(4)},
	}
	refRes, refEvs := soakRun(t, procs, cases[0].eng)
	if len(refEvs) == 0 {
		t.Fatalf("P=%d: reference run kept no events — sampler or tracer wiring broken", procs)
	}
	for _, c := range cases[1:] {
		res, evs := soakRun(t, procs, c.eng)
		if res.Makespan != refRes.Makespan {
			t.Errorf("P=%d %s: makespan %.17g != %s %.17g",
				procs, c.name, res.Makespan, cases[0].name, refRes.Makespan)
		}
		if !reflect.DeepEqual(res.Hists, refRes.Hists) {
			t.Errorf("P=%d %s: histograms differ from %s", procs, c.name, cases[0].name)
		}
		if !reflect.DeepEqual(res.Stats, refRes.Stats) {
			t.Errorf("P=%d %s: run statistics differ from %s", procs, c.name, cases[0].name)
		}
		if len(evs) != len(refEvs) {
			t.Errorf("P=%d %s: kept %d events, %s kept %d",
				procs, c.name, len(evs), cases[0].name, len(refEvs))
			continue
		}
		for i := range evs {
			if evs[i] != refEvs[i] {
				t.Errorf("P=%d %s: event %d = %+v, %s has %+v",
					procs, c.name, i, evs[i], cases[0].name, refEvs[i])
				break
			}
		}
	}
	t.Logf("P=%d: %d kept events, makespan %.9g, identical across %d engines",
		procs, len(refEvs), refRes.Makespan, len(cases))
	return refRes.Makespan
}

func TestMachineScaleSoak(t *testing.T) {
	if raceEnabledRoot {
		t.Skip("soak sizes are too large under the race detector")
	}
	makespan := soakCompare(t, 4096)
	// One data set per module: the whole run is one data-set latency of the
	// telemetry tier, at every P.
	if makespan != scaleLatency {
		t.Errorf("P=4096 makespan %.17g, want %.17g", makespan, scaleLatency)
	}

	if os.Getenv("FXPAR_SCALE_SOAK") != "1" {
		t.Log("FXPAR_SCALE_SOAK not set; skipping P=65536 cross-engine soak and P=1048576 run")
		return
	}
	soak := soakCompare(t, 65536)
	if soak != makespan {
		t.Errorf("P=65536 makespan %.17g != P=4096 makespan %.17g — workload is not P-invariant", soak, makespan)
	}

	// The million-processor point: untraced, single engine — the comparison
	// here is the exact virtual makespan against the smaller tiers.
	res := machineRun(machineSoakProcs, machine.Coop(1))
	if res.Makespan != makespan {
		t.Errorf("P=%d makespan %.17g != smaller tiers %.17g", machineSoakProcs, res.Makespan, makespan)
	} else {
		t.Logf("P=%d: makespan %.9g matches smaller tiers exactly", machineSoakProcs, res.Makespan)
	}
}
