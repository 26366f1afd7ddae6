// Cross-engine golden soak: the execution engines are host-time strategies
// only, so a full P=1024 FFT-Hist pipeline campaign must produce
// byte-identical traces, per-processor statistics, and metrics under every
// engine. This is the acceptance test of the engine abstraction — any
// divergence means an engine changed virtual-time semantics, not just
// scheduling.
package fxpar_test

import (
	"bytes"
	"reflect"
	"testing"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/comm"
	"fxpar/internal/fault"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/metrics"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
	"fxpar/internal/sweep"
	"fxpar/internal/trace"
)

// soakOutputs is everything one engine run produces that must match across
// engines.
type soakOutputs struct {
	res     ffthist.Result
	events  []machine.Event
	metrics []byte // metrics.StreamSink snapshot JSON
}

func runEngineSoak(t *testing.T, eng machine.Engine, cfg ffthist.Config, mp mapping.Mapping) soakOutputs {
	return runEngineSoakFaults(t, eng, cfg, mp, 1024, nil)
}

func runEngineSoakFaults(t *testing.T, eng machine.Engine, cfg ffthist.Config, mp mapping.Mapping,
	procs int, fp machine.FaultPlan) soakOutputs {
	t.Helper()
	col, sink := &trace.Collector{}, metrics.NewStreamSink(procs)
	m := machine.New(procs, sim.Paragon())
	m.SetEngine(eng)
	m.SetTracer(trace.Tee(col, sink))
	m.SetFaults(fp)
	res := ffthist.Run(m, cfg, mp)
	evs := col.Events()
	js, err := sink.Snapshot().JSON()
	if err != nil {
		t.Fatalf("%s metrics: %v", eng.Name(), err)
	}
	return soakOutputs{res: res, events: evs, metrics: js}
}

// TestEngineSoakP1024 runs the FFT-Hist pipeline on 1024 simulated
// processors — 8 replicated modules of a 64/32/32 three-stage pipeline —
// under the goroutine and the coop engine, and requires identical Events()
// streams, RunStats, and metrics.StreamSink snapshots.
func TestEngineSoakP1024(t *testing.T) {
	cfg := ffthist.Config{N: 64, Sets: 16, Bins: 64}
	if testing.Short() {
		cfg.Sets = 8
	}
	mp := mapping.Mapping{Modules: 8, Stages: []int{64, 32, 32}}

	base := runEngineSoak(t, machine.Goroutine(), cfg, mp)
	if len(base.events) == 0 {
		t.Fatal("baseline run recorded no events")
	}

	for _, eng := range []machine.Engine{machine.Coop(1), machine.Coop(4)} {
		got := runEngineSoak(t, eng, cfg, mp)

		if !reflect.DeepEqual(got.res.Stats, base.res.Stats) {
			t.Errorf("%s: RunStats diverge from goroutine engine", eng.Name())
		}
		if !reflect.DeepEqual(got.res.Stream, base.res.Stream) {
			t.Errorf("%s: stream stats diverge: %+v vs %+v", eng.Name(), got.res.Stream, base.res.Stream)
		}
		if !reflect.DeepEqual(got.res.Hists, base.res.Hists) {
			t.Errorf("%s: histogram outputs diverge", eng.Name())
		}
		if len(got.events) != len(base.events) {
			t.Fatalf("%s: %d events vs %d under goroutine", eng.Name(), len(got.events), len(base.events))
		}
		for i := range got.events {
			if got.events[i] != base.events[i] {
				t.Fatalf("%s: event %d diverges:\n got %+v\nwant %+v", eng.Name(), i, got.events[i], base.events[i])
			}
		}
		if !bytes.Equal(got.metrics, base.metrics) {
			t.Errorf("%s: metrics snapshots diverge (%d vs %d bytes)", eng.Name(), len(got.metrics), len(base.metrics))
		}
	}
}

// TestEngineSkeletonIdentityP64: the serialized communication skeleton is a
// content-keyed artifact (cacheable, diffable), so the same P=64 FFT-Hist
// run must serialize to byte-identical skeletons under every engine — the
// capture path goes through a live skeleton.Sink, whose per-processor
// buffers fill in engine-dependent host order but must fold to the same
// canonical form.
func TestEngineSkeletonIdentityP64(t *testing.T) {
	cfg := ffthist.Config{N: 64, Sets: 8, Bins: 64}
	mp := mapping.Mapping{Modules: 2, Stages: []int{16, 8, 8}}

	capture := func(eng machine.Engine) []byte {
		t.Helper()
		sink := skeleton.NewSink(sim.Paragon(), "")
		m := machine.New(64, sim.Paragon())
		m.SetEngine(eng)
		m.SetTracer(sink)
		ffthist.Run(m, cfg, mp)
		sk, err := sink.Skeleton()
		if err != nil {
			t.Fatalf("%s: skeleton: %v", eng.Name(), err)
		}
		data, err := sk.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", eng.Name(), err)
		}
		return data
	}

	base := capture(machine.Goroutine())
	if len(base) == 0 {
		t.Fatal("baseline skeleton is empty")
	}
	for _, eng := range []machine.Engine{machine.Coop(1), machine.Coop(4)} {
		if got := capture(eng); !bytes.Equal(got, base) {
			t.Errorf("%s: serialized skeleton diverges from goroutine engine (%d vs %d bytes)",
				eng.Name(), len(got), len(base))
		}
	}
}

// TestEngineSoakChaosP256: fault injection is part of the virtual-time
// semantics, so the same (seed, profile, scenario) must produce
// byte-identical traces — chaos markers included — RunStats, outputs, and
// metrics under every engine, including the shuffled schedule perturbation.
// The profile exercises every non-lethal fault class (delays, forced
// retransmissions, duplicates, slowdowns), whose decisions would diverge
// instantly if any engine consulted the plan in host order rather than by
// the per-pair message sequence.
func TestEngineSoakChaosP256(t *testing.T) {
	cfg := ffthist.Config{N: 64, Sets: 8, Bins: 64}
	mp := mapping.Mapping{Modules: 2, Stages: []int{64, 32, 32}}
	prof, err := fault.ProfileByName("flaky")
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.New(42, prof)

	base := runEngineSoakFaults(t, machine.Goroutine(), cfg, mp, 256, plan)
	faults := 0
	for _, e := range base.events {
		if e.Kind == machine.EvFault {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("chaos soak injected no faults — the scenario exercises nothing")
	}

	for _, eng := range []machine.Engine{machine.Coop(1), machine.Coop(4), machine.CoopShuffled(4, 9)} {
		got := runEngineSoakFaults(t, eng, cfg, mp, 256, plan)
		if !reflect.DeepEqual(got.res.Stats, base.res.Stats) {
			t.Errorf("%s: chaotic RunStats diverge from goroutine engine", eng.Name())
		}
		if !reflect.DeepEqual(got.res.Hists, base.res.Hists) {
			t.Errorf("%s: chaotic histogram outputs diverge", eng.Name())
		}
		if len(got.events) != len(base.events) {
			t.Fatalf("%s: %d events vs %d under goroutine", eng.Name(), len(got.events), len(base.events))
		}
		for i := range got.events {
			if got.events[i] != base.events[i] {
				t.Fatalf("%s: chaotic event %d diverges:\n got %+v\nwant %+v", eng.Name(), i, got.events[i], base.events[i])
			}
		}
		if !bytes.Equal(got.metrics, base.metrics) {
			t.Errorf("%s: chaotic metrics snapshots diverge (%d vs %d bytes)", eng.Name(), len(got.metrics), len(base.metrics))
		}
	}
}

// ringJob is one machine-layer-dominated simulation: iters rounds of compute
// (scaled by the job index, so a campaign is heterogeneous), a ring neighbour
// exchange and, optionally, a dissemination barrier — chains of blocking
// receives, the handoff-heavy regime the engines differ in on the host.
func ringJob(procs, job, iters int, barrier bool, eng machine.Engine) float64 {
	g := group.World(procs)
	m := machine.New(procs, sim.Paragon())
	m.SetEngine(eng)
	st := m.Run(func(p *machine.Proc) {
		r := p.ID()
		for it := 0; it < iters; it++ {
			p.Compute(float64(1+job) * 1e3)
			comm.Send(p, g, (r+1)%procs, []float64{float64(r)})
			comm.Recv[float64](p, g, (r+procs-1)%procs)
			if barrier {
				comm.Barrier(p, g)
			}
		}
	})
	return st.MakespanTime()
}

// TestEngineCampaignMakespans: a campaign of ring+barrier jobs yields the
// same virtual makespans under goroutine and coop at every P, and job 0's is
// pinned as a literal so a change to message or barrier costing is named.
func TestEngineCampaignMakespans(t *testing.T) {
	jobs := 6
	if testing.Short() {
		jobs = 1
	}
	for _, tc := range []struct {
		procs int
		job0  float64
	}{
		{64, 0.01953706666666665},
		{256, 0.024661333333333302},
		{1024, 0.029785599999999954},
	} {
		for job := 0; job < jobs; job++ {
			goro := ringJob(tc.procs, job, 16, true, machine.Goroutine())
			coop := ringJob(tc.procs, job, 16, true, machine.Coop(1))
			if coop != goro {
				t.Errorf("P=%d job %d: coop makespan %.17g != goroutine %.17g", tc.procs, job, coop, goro)
			}
			if job == 0 && goro != tc.job0 {
				t.Errorf("P=%d job 0: makespan %.17g, want %.17g", tc.procs, goro, tc.job0)
			}
		}
	}
}

// TestSweepCampaignMakespans: a heterogeneous campaign of P=256 ring
// relaxations fanned out by sweep.Map yields the same makespans at -j 1 and
// -j 4, with job 0's pinned as a literal.
func TestSweepCampaignMakespans(t *testing.T) {
	const procs, jobs = 256, 24
	run := func(workers int) []float64 {
		results := sweep.Map(workers, jobs, func(j int) (float64, error) {
			return ringJob(procs, j, 4, false, nil), nil
		})
		vals := make([]float64, len(results))
		for j, r := range results {
			if r.Err != nil {
				t.Fatalf("job %d: %v", j, r.Err)
			}
			vals[j] = r.Value
		}
		return vals
	}
	j1, j4 := run(1), run(4)
	if !reflect.DeepEqual(j1, j4) {
		t.Errorf("campaign makespans differ between -j 1 and -j 4:\n%v\n%v", j1, j4)
	}
	if want := 0.0010410666666666667; j1[0] != want {
		t.Errorf("job 0 makespan %.17g, want %.17g", j1[0], want)
	}
}
