// Command fxprof is the observability front door: it runs one of the sensor
// applications (FFT-Hist, Radar, Stereo) under any module/stage mapping with
// full tracing, and reports where the virtual time went —
//
//   - per-(group, operation) metrics: messages, bytes, barrier waits,
//     compute/idle/IO time, span duration histograms (text + JSON snapshot);
//   - a critical-path analysis reconstructing the run's dependency graph
//     from send→recv edges and span nesting, with per-kind and per-stage
//     breakdown — this is the direct explanation of the latency column of
//     Table 1 and the mapping crossovers of Figure 5;
//   - ASCII Gantt charts (event kinds and named spans) and a
//     Perfetto/Chrome trace with named, nested span tracks.
//
// Examples:
//
//	fxprof -app ffthist -stages 2,2,2          # 3-stage pipeline
//	fxprof -app ffthist -stages 6              # pure data parallel
//	fxprof -app radar -modules 2 -stages 2,4,4,2 -out radar
//	fxprof -app ffthist -auto -procs 16 -goal 4 -cache .fxcache
//	                                           # profile the optimizer's pick
//	fxprof -app ffthist -stages 4,2,2 -whatif  # causal what-if profile
//
// With -whatif the run is additionally captured as a communication skeleton
// (internal/skeleton): after a determinism self-check — re-costing the
// skeleton at the recorded parameters must reproduce the recorded makespan
// and critical path exactly — it prints the COZ-style ranked table of
// virtual span speedups ("speeding up span X by k gains Y on the makespan")
// and alpha/beta/flop-rate sensitivity curves, and writes the serialized
// skeleton next to the other artifacts.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"fxpar/internal/apps/sensor"
	"fxpar/internal/cliflags"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/metrics"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
	"fxpar/internal/sweep"
	"fxpar/internal/trace"
)

// parseFactors parses a comma-separated list of positive finite floats.
// Empty segments — "1,,2", a trailing comma, or an empty list — are
// rejected with an error naming the offending position, not silently
// skipped or reported as a cryptic parse failure.
func parseFactors(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty factor list")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("empty factor at position %d in %q (stray or trailing comma)", i+1, s)
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("invalid factor %q (want a positive number)", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseStages parses the -stages list with the same empty-segment
// strictness as parseFactors.
func parseStages(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty stage list")
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("empty stage size at position %d in %q (stray or trailing comma)", i+1, s)
		}
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("invalid stage size %q (want a positive integer)", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fxprof:", err)
	os.Exit(1)
}

// writeFile writes data to name, failing loudly; Close errors are checked
// because a short write on trace export corrupts the JSON silently.
func writeFile(name string, write func(*os.File) error) {
	f, err := os.Create(name)
	if err != nil {
		fail(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", name)
}

func main() {
	app := flag.String("app", "ffthist", "application: ffthist | radar | stereo")
	modules := flag.Int("modules", 1, "replication factor (modules processing alternate data sets)")
	stagesFlag := flag.String("stages", "2,2,2", "comma-separated processors per pipeline stage (one value = data parallel)")
	n := flag.Int("n", 64, "data set edge (ffthist: NxN; radar: gates; stereo: image width)")
	sets := flag.Int("sets", 6, "stream length")
	procs := flag.Int("procs", 0, "machine size (default: exactly what the mapping uses)")
	out := flag.String("out", "fxprof", "output file prefix ('' = no files, console only)")
	width := flag.Int("width", 100, "gantt width in characters")
	auto := flag.Bool("auto", false, "ignore -modules/-stages and profile the optimizer's mapping for -procs processors (built from measured cost tables)")
	goal := flag.Float64("goal", 0, "with -auto: throughput constraint in data sets/s (0 = minimize latency only)")
	shared := cliflags.Register(flag.CommandLine, "j", "cache", "replay", "monitor", "engine", "chaos")
	whatif := flag.Bool("whatif", false, "capture the run as a communication skeleton and print the causal what-if profile (ranked virtual span speedups + machine-parameter sensitivity curves)")
	factors := flag.String("factors", "1.25,1.5,2,4", "with -whatif: comma-separated virtual speedup factors")
	senscales := flag.String("senscales", "0.25,0.5,1,2,4", "with -whatif: comma-separated alpha/beta/flop-rate scales for the sensitivity curves")
	sample := flag.String("sample", "", "deterministic event sampling: rate[:seed][,kind=rate ...] (e.g. 1/64 or 1/64:7,send=1); span/fault/retry events are always kept, counts are reported with scale factors; incompatible with -whatif")
	flag.Parse()
	c, err := shared.Resolve()
	if err != nil {
		fail(err)
	}
	a, err := sensor.ByName(*app, false, *sets, *n)
	if err != nil {
		fail(err)
	}

	var mp mapping.Mapping
	if *auto {
		if *procs <= 0 {
			fail(fmt.Errorf("-auto needs an explicit -procs (the machine the optimizer maps onto)"))
		}
	} else {
		stages, err := parseStages(*stagesFlag)
		if err != nil {
			fail(err)
		}
		mp = mapping.Mapping{Modules: *modules, Stages: stages}
		if *procs == 0 {
			*procs = mp.Procs()
		}
		if err := a.Validate(mp, *procs); err != nil {
			fail(err)
		}
	}
	// The full collector drives the post-hoc views (Gantt, critical path,
	// Chrome export); the streaming sinks aggregate the same run online.
	// Every sink is wrapped in an overhead-budget meter so the profile
	// accounts for its own host cost.
	var sampler *trace.Sampler
	if *sample != "" {
		if *whatif {
			fail(fmt.Errorf("-sample is incompatible with -whatif: the skeleton capture needs the full event stream"))
		}
		cfg, err := trace.ParseSampleSpec(*sample)
		if err != nil {
			fail(err)
		}
		sampler = trace.NewSampler(*procs, cfg)
	}
	budget := trace.NewOverheadBudget()
	col := &trace.Collector{}
	sink := metrics.NewStreamSink(*procs)
	comm := trace.NewCommMatrix(*procs)
	util := trace.NewUtilSink(*procs)
	m := machine.New(*procs, sim.Paragon())
	m.SetEngine(c.Engine)
	m.SetTracer(trace.Tee(
		budget.Meter("collector", col),
		budget.Meter("metrics", sink),
		budget.Meter("comm", comm),
		budget.Meter("util", util),
	))
	if sampler != nil {
		m.SetSampler(sampler)
		budget.SetSampler(sampler)
		fmt.Printf("sampling: deterministic, seed %d — recorded counts are samples; unsampled estimate = count / rate\n", sampler.Snapshot().Seed)
	}
	m.SetFaults(c.Plan.Machine())

	sweep.SetTelemetrySource(func() sweep.TelemetrySnapshot {
		r := budget.Report()
		ts := sweep.TelemetrySnapshot{Line: r.Line(), SinkSharePct: r.SinkSharePct}
		if r.Sample != nil {
			ts.SampleRates = r.Sample.RatesString()
			ts.DroppedEvents = r.Sample.Dropped
		}
		return ts
	})
	stopMon, err := c.Start(os.Stdout)
	if err != nil {
		fail(err)
	}
	defer stopMon()

	if *auto {
		// Profile the optimizer's pick against measured cost tables.
		opt := mapping.BuildOptions{Workers: c.Workers, CacheDir: c.CacheDir, Engine: c.Engine, Replay: c.Replay}
		model, src, err := a.Model(sim.Paragon(), *procs, opt)
		if err != nil {
			fail(err)
		}
		choice, err := mapping.Optimize(model, *goal)
		if err != nil {
			fail(err)
		}
		fmt.Printf("auto: chose %s for %d procs, goal %g sets/s (cost tables: %s)\n\n",
			choice, *procs, *goal, src)
		mp = choice.Mapping
	}
	budget.Start()
	stream := a.Run(m, mp).Stream
	budget.Finish()

	fmt.Printf("=== %s %s on %d procs: %s ===\n\n", *app, mp, *procs, stream)

	// sampled marks every view computed from a thinned event stream, so no
	// reader mistakes a sampled count for an exhaustive one.
	sampled := ""
	if sampler != nil {
		sampled = " [sampled]"
	}
	evs := col.Events()

	fmt.Printf("--- gantt (event kinds)%s ---\n", sampled)
	trace.Gantt(os.Stdout, col, *procs, *width)
	fmt.Println()
	fmt.Printf("--- gantt (innermost spans)%s ---\n", sampled)
	trace.SpanGantt(os.Stdout, col, *procs, *width)
	fmt.Println()
	fmt.Printf("--- utilization%s ---\n", sampled)
	us := util.Snapshot()
	if *procs > 256 {
		// Per-processor rows are unreadable at scale; print the distribution.
		metrics.UtilDistribution(us).WriteText(os.Stdout)
	} else {
		us.WriteText(os.Stdout)
	}
	fmt.Println()
	fmt.Printf("--- spans%s ---\n", sampled)
	trace.SpanSummary(os.Stdout, col)
	fmt.Println()

	snap := sink.Snapshot()
	js, err := snap.JSON()
	if err != nil {
		fail(err)
	}
	fmt.Printf("--- per-group metrics (streamed)%s ---\n", sampled)
	snap.WriteText(os.Stdout)
	fmt.Println()
	edges := comm.Snapshot()
	if len(edges) > 64 {
		// Bounded rendering at scale: the sparse matrix may hold far more
		// active pairs than a terminal can show.
		fmt.Printf("--- communication matrix (top 64 of %d edges by total bytes)%s ---\n", len(edges), sampled)
		trace.WriteCommMatrix(os.Stdout, trace.TopCommEdges(edges, 64))
	} else {
		fmt.Printf("--- communication matrix%s ---\n", sampled)
		trace.WriteCommMatrix(os.Stdout, edges)
	}
	fmt.Println()

	cp := trace.ComputeCriticalPath(evs)
	fmt.Printf("--- critical path%s ---\n", sampled)
	if sampler != nil {
		fmt.Println("(sampled trace: virtual times are exact, but thinned send/recv events make edge coverage partial)")
	}
	cp.WriteReport(os.Stdout)

	if sampler != nil {
		fmt.Println()
		fmt.Println("--- sampling (deterministic: same kept set on every engine and -j) ---")
		sampler.Snapshot().WriteText(os.Stdout)
	}
	fmt.Println()
	fmt.Println("--- telemetry overhead budget (self-accounted) ---")
	budget.Report().WriteText(os.Stdout)

	var sk *skeleton.Skeleton
	if *whatif {
		fs, err := parseFactors(*factors)
		if err != nil {
			fail(err)
		}
		scales, err := parseFactors(*senscales)
		if err != nil {
			fail(err)
		}
		sk, err = skeleton.FromEvents(sim.Paragon(), evs)
		if err != nil {
			fail(err)
		}
		if c.Plan != nil {
			sk.Chaos = c.Plan.String()
		}

		// Determinism self-check: the analytic re-cost at recorded parameters
		// must reproduce the recorded run exactly — makespan and critical
		// path — or every what-if number below would be built on sand.
		res, err := sk.RecostEvents(skeleton.Params{})
		if err != nil {
			fail(err)
		}
		if res.Makespan != sk.Makespan {
			fail(fmt.Errorf("skeleton self-check: re-cost makespan %v != recorded %v", res.Makespan, sk.Makespan))
		}
		var recBuf, reBuf strings.Builder
		cp.WriteReport(&recBuf)
		trace.ComputeCriticalPath(res.Events).WriteReport(&reBuf)
		if recBuf.String() != reBuf.String() {
			fail(fmt.Errorf("skeleton self-check: re-costed critical path diverges from recorded"))
		}
		key, err := sk.Key()
		if err != nil {
			fail(err)
		}

		fmt.Println()
		fmt.Printf("--- what-if (skeleton %s, %d ops; re-cost reproduces recorded run exactly) ---\n", key, sk.Ops())
		rep, err := sk.WhatIf(fs)
		if err != nil {
			fail(err)
		}
		rep.WriteTable(os.Stdout)
		fmt.Println()
		fmt.Println("--- sensitivity (machine parameters) ---")
		sv, err := sk.Sensitivity(scales)
		if err != nil {
			fail(err)
		}
		sv.WriteCurves(os.Stdout)
	}

	if *out != "" {
		writeFile(*out+".metrics.json", func(f *os.File) error {
			_, err := f.Write(js)
			return err
		})
		writeFile(*out+".trace.json", func(f *os.File) error {
			return trace.WriteChromeTrace(f, col)
		})
		writeFile(*out+".critpath.txt", func(f *os.File) error {
			cp.WriteReport(f)
			return nil
		})
		if sk != nil {
			if err := sk.WriteFile(*out + ".skeleton.json"); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *out+".skeleton.json")
		}
	}
}
