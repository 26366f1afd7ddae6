// Scale soak: drive the full scale telemetry stack — deterministic
// sampling, sharded sketch-folding sinks, sparse comm matrix, overhead
// budget — through one large FFT-Hist campaign and check the invariants
// that must hold at any P:
//
//   - telemetry never perturbs virtual time (sampled makespan == untraced);
//   - the sampler's decisions are a pure function of (proc, seq), so the
//     kept/dropped split is reproducible run to run and pinned as literals;
//   - sketch-mode stream metering keeps only in-flight entries and its
//     quantiles are ordered;
//   - the budget accounts every sink it metered;
//   - the kept-event volume per processor stays flat as P grows.
//
// The always-on test runs P=1024 (plus one sampled P=4096 run outside
// -short and the race detector); setting FXPAR_SCALE_SOAK=1 raises it to the
// full P=65536 soak (see EXPERIMENTS.md). Host-time cost of the same stack
// is measured by benchmark/ (trace.sampled_overhead_x and friends).
package fxpar_test

import (
	"os"
	"reflect"
	"testing"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/metrics"
	"fxpar/internal/sim"
	"fxpar/internal/trace"
)

// Scale workload shape: each module is a 64-processor data-parallel FFT-Hist
// worker, so total work scales linearly with P and the per-processor event
// rate is constant — any growth in per-proc telemetry volume is the
// telemetry's fault, not the workload's. The telemetry tier runs two data
// sets per module; the machine-core tier (machine_scale_soak_test.go) runs
// one, so the P=1048576 run finishes on one host core in minutes.
const (
	scaleModuleProcs     = 64
	scaleSetsPerModule   = 2
	machineSetsPerModule = 1
	scaleN               = 64
	scaleBins            = 64
	scaleSampleSpec      = "1/64:1"
	scaleCoopWorkers     = 8
)

// Deterministic results of the telemetry tier, identical on every host,
// engine and -j. The workload replicates identical modules, so makespan and
// latency quantiles do not depend on P; the sampler's kept/dropped split does.
const (
	scaleMakespan = 0.03996373333333301
	scaleLatency  = 0.01998186666666657 // p50 == p99: every data set takes the same virtual time
	// scaleKeptSpread bounds max/min of kept events per processor across P.
	scaleKeptSpread = 1.25
)

var scaleSampled = map[int]struct{ kept, dropped int64 }{
	1024:  {12595, 281581},
	4096:  {50504, 1126200},
	65536: {811370, 18015894},
}

// scaleWorkload builds the replicated-module FFT-Hist campaign at a given P.
func scaleWorkload(procs, setsPerModule int) (ffthist.Config, mapping.Mapping) {
	modules := procs / scaleModuleProcs
	cfg := ffthist.Config{
		N: scaleN, Sets: setsPerModule * modules, Bins: scaleBins,
		SketchStats: true,
	}
	mp := mapping.Mapping{Modules: modules, Stages: []int{scaleModuleProcs}}
	return cfg, mp
}

// scaleRunNil runs the workload with telemetry off (the baseline).
func scaleRunNil(procs int) ffthist.Result {
	cfg, mp := scaleWorkload(procs, scaleSetsPerModule)
	m := machine.New(procs, sim.Paragon())
	m.SetEngine(machine.Coop(scaleCoopWorkers))
	return ffthist.Run(m, cfg, mp)
}

// scaleRunSampled runs the workload under the scale telemetry stack and
// returns the app result plus the sampler and budget snapshots.
func scaleRunSampled(procs int) (ffthist.Result, trace.SampleSnapshot, trace.BudgetReport) {
	cfg, mp := scaleWorkload(procs, scaleSetsPerModule)
	scfg, err := trace.ParseSampleSpec(scaleSampleSpec)
	if err != nil {
		panic(err)
	}
	sampler := trace.NewSampler(procs, scfg)
	budget := trace.NewOverheadBudget()
	sink := metrics.NewStreamSink(procs)
	util := trace.NewUtilSink(procs)
	comm := trace.NewCommMatrix(procs)
	m := machine.New(procs, sim.Paragon())
	m.SetEngine(machine.Coop(scaleCoopWorkers))
	m.SetTracer(trace.Tee(
		budget.Meter("metrics", sink),
		budget.Meter("util", util),
		budget.Meter("comm", comm),
	))
	m.SetSampler(sampler)
	budget.SetSampler(sampler)
	budget.Start()
	res := ffthist.Run(m, cfg, mp)
	_ = sink.Snapshot()
	_ = metrics.UtilDistribution(util.Snapshot())
	_ = trace.TopCommEdges(comm.Snapshot(), 64)
	budget.Finish()
	return res, sampler.Snapshot(), budget.Report()
}

// checkScaleGolden holds one sampled run to the tier's literals.
func checkScaleGolden(t *testing.T, procs int, res ffthist.Result, samp trace.SampleSnapshot) {
	t.Helper()
	if res.Makespan != scaleMakespan {
		t.Errorf("P=%d: makespan %.17g, want %.17g", procs, res.Makespan, scaleMakespan)
	}
	if res.Stream.LatencyP50 != scaleLatency || res.Stream.LatencyP99 != scaleLatency {
		t.Errorf("P=%d: latency p50 %.17g p99 %.17g, want both %.17g",
			procs, res.Stream.LatencyP50, res.Stream.LatencyP99, scaleLatency)
	}
	want, ok := scaleSampled[procs]
	if !ok {
		t.Fatalf("P=%d: no kept/dropped literal", procs)
	}
	if samp.Kept != want.kept || samp.Dropped != want.dropped {
		t.Errorf("P=%d: sampler kept %d dropped %d, want %d / %d",
			procs, samp.Kept, samp.Dropped, want.kept, want.dropped)
	}
}

func TestScaleTelemetrySoak(t *testing.T) {
	procs := 1024
	if os.Getenv("FXPAR_SCALE_SOAK") != "" {
		procs = 65536
	}

	nilRes := scaleRunNil(procs)
	res, samp, rep := scaleRunSampled(procs)

	if res.Makespan != nilRes.Makespan {
		t.Fatalf("sampled makespan %.12g != untraced %.12g — telemetry perturbed the simulation",
			res.Makespan, nilRes.Makespan)
	}
	if !reflect.DeepEqual(res.Hists, nilRes.Hists) {
		t.Fatal("sampled run produced different histograms than untraced")
	}
	checkScaleGolden(t, procs, res, samp)

	// Second sampled run: every deterministic output must reproduce exactly —
	// the kept set is a pure function of (proc, seq, kind), not of host
	// scheduling.
	res2, samp2, _ := scaleRunSampled(procs)
	if !reflect.DeepEqual(samp, samp2) {
		t.Fatalf("sampler snapshots differ across identical runs:\n%+v\n%+v", samp, samp2)
	}
	if res.Stream != res2.Stream {
		t.Fatalf("stream stats differ across identical runs:\n%+v\n%+v", res.Stream, res2.Stream)
	}

	// Sketch-mode stream invariants.
	if !res.Stream.Sketched {
		t.Fatal("scale config did not run in sketch-stats mode")
	}
	if p50, p99 := res.Stream.LatencyP50, res.Stream.LatencyP99; !(p50 > 0 && p50 <= p99 && p99 <= res.Stream.MaxLatency) {
		t.Fatalf("latency quantiles out of order: p50 %g p99 %g max %g", p50, p99, res.Stream.MaxLatency)
	}

	// The budget metered all three sinks and saw every kept event.
	if len(rep.Sinks) != 3 {
		t.Fatalf("budget metered %d sinks, want 3: %+v", len(rep.Sinks), rep.Sinks)
	}
	for _, s := range rep.Sinks {
		if s.Events != samp.Kept {
			t.Fatalf("sink %s saw %d events, sampler kept %d", s.Name, s.Events, samp.Kept)
		}
	}
	if rep.Sample == nil || rep.Sample.Kept != samp.Kept {
		t.Fatalf("budget report sample = %+v, want kept %d", rep.Sample, samp.Kept)
	}
	t.Logf("P=%d: kept %d dropped %d, %s", procs, samp.Kept, samp.Dropped, rep.Line())

	// Flatness across P: a second size, held to its own literals, must keep
	// the same event volume per processor.
	const wideProcs = 4096
	if testing.Short() || raceEnabledRoot || procs >= wideProcs {
		return
	}
	wideRes, wideSamp, _ := scaleRunSampled(wideProcs)
	checkScaleGolden(t, wideProcs, wideRes, wideSamp)
	lo := float64(samp.Kept) / float64(procs)
	hi := float64(wideSamp.Kept) / float64(wideProcs)
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi/lo > scaleKeptSpread {
		t.Errorf("kept events per proc not flat across P: %.2f .. %.2f (spread %.2f > %.2f)",
			lo, hi, hi/lo, scaleKeptSpread)
	}
}
