package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/apps/qsort"
	"fxpar/internal/comm"
	"fxpar/internal/dist"
	"fxpar/internal/fsatomic"
	"fxpar/internal/fx"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/metrics"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
	"fxpar/internal/sweep"
	"fxpar/internal/trace"
)

// The layer probes are micro-programs whose body is essentially one layer's
// public call, timed from outside. Every traced run executes all of them,
// whatever its workload, so a per-layer number means the same thing in
// every result file. A probe reports the best of a few passes.

// best returns the minimum wall time of n calls of fn.
func best(n int, fn func()) time.Duration {
	b := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		fn()
		b = min(b, time.Since(start))
	}
	return b
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func mustEngine(name string) machine.Engine {
	eng, err := machine.EngineByName(name)
	if err != nil {
		panic(err)
	}
	return eng
}

// runOn runs body on a fresh p-processor machine under the named engine and
// returns the host time of New + Run.
func runOn(p int, engine string, body func(*machine.Proc)) time.Duration {
	start := time.Now()
	m := machine.New(p, sim.Paragon())
	m.SetEngine(mustEngine(engine))
	m.Run(body)
	return time.Since(start)
}

func fxOn(p int, body func(*fx.Proc)) time.Duration {
	start := time.Now()
	fx.Run(machine.New(p, sim.Paragon()), body)
	return time.Since(start)
}

// probes runs every layer probe and returns the per-layer metrics by name.
func probes(e *env) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range []func(*env, map[string]float64) error{
		probeMachine, probeCollectives, probeFx, probeDist, probeApps,
		probeTelemetry, probeSkeleton, probeMapping, probeTable1, probeServe,
	} {
		if err := p(e, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func probeMachine(_ *env, out map[string]float64) error {
	const procs = simScaleProcs
	out["machine.new_us_per_proc"] = us(best(5, func() {
		runOn(procs, "goroutine", func(*machine.Proc) {})
	})) / procs

	// Message put/get: a two-processor ping-pong of 8-byte messages.
	const pairs = 50_000
	pingPong := func(p *machine.Proc) {
		peer := 1 - p.ID()
		for i := 0; i < pairs; i++ {
			if p.ID() == 0 {
				p.Send(peer, i, 8)
				p.Recv(peer)
			} else {
				p.Recv(peer)
				p.Send(peer, i, 8)
			}
		}
	}
	// Scheduler handoff: a token ring, so every Recv parks its processor.
	const ring, laps = 256, 40
	tokenRing := func(p *machine.Proc) {
		next, prev := (p.ID()+1)%ring, (p.ID()+ring-1)%ring
		for l := 0; l < laps; l++ {
			if p.ID() == 0 {
				p.Send(next, l, 8)
				p.Recv(prev)
			} else {
				p.Recv(prev)
				p.Send(next, l, 8)
			}
		}
	}
	for _, eng := range []string{"goroutine", "coop"} {
		out["machine.msg_"+eng+"_ns"] = float64(best(3, func() { runOn(2, eng, pingPong) })) / (2 * pairs)
		out["machine.handoff_"+eng+"_ns"] = float64(best(3, func() { runOn(ring, eng, tokenRing) })) / (ring * laps)
	}

	// Run cost per processor at two machine sizes: the sim-scale workload's
	// own shape, so flatness_x says how superlinear a run is.
	perProc := func(eng machine.Engine, p int) float64 {
		return us(best(2, func() { scaleRun(nil, -1, p, eng) })) / float64(p)
	}
	g1, g4 := perProc(nil, 1024), perProc(nil, procs)
	c1, c4 := perProc(mustEngine("coop"), 1024), perProc(mustEngine("coop"), procs)
	out["machine.us_per_proc_p1024"], out["machine.us_per_proc_p4096"] = g1, g4
	out["machine.flatness_x"], out["machine.coop_flatness_x"] = g4/g1, c4/c1

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	scaleRun(nil, -1, procs, mustEngine("coop"))
	runtime.ReadMemStats(&after)
	out["machine.mallocs_per_proc"] = float64(after.Mallocs-before.Mallocs) / procs
	return nil
}

func probeCollectives(_ *env, out map[string]float64) error {
	const procs, calls = 64, 200
	g := group.World(procs)
	per := func(body func(p *machine.Proc)) float64 {
		return us(best(3, func() {
			runOn(procs, "goroutine", func(p *machine.Proc) {
				for i := 0; i < calls; i++ {
					body(p)
				}
			})
		})) / calls
	}
	out["comm.barrier_us"] = per(func(p *machine.Proc) { comm.Barrier(p, g) })
	payload := make([]float64, 16)
	out["comm.bcast_us"] = per(func(p *machine.Proc) { comm.Bcast(p, g, 0, payload) })
	out["comm.allreduce_us"] = per(func(p *machine.Proc) {
		comm.AllReduce(p, g, 1.0, func(a, b float64) float64 { return a + b })
	})

	world := group.World(simScaleProcs)
	var err error
	out["group.partition_us"] = us(best(20, func() {
		_, err = group.EqualSplit(world, "m", simScaleProcs/scaleModuleProcs)
	}))
	return err
}

// nestRegions halves the current group inside an ON block until the mapping
// stack is depth deep, then runs leaf there.
func nestRegions(p *fx.Proc, depth int, leaf func()) {
	if p.Depth() == depth {
		leaf()
		return
	}
	n := p.NumberOfProcessors()
	part := p.Partition(group.Sub("lo", n/2), group.Sub("hi", n-n/2))
	p.TaskRegion(part, func(r *fx.Region) {
		r.On(r.MySubgroup(), func() { nestRegions(p, depth, leaf) })
	})
}

func probeFx(_ *env, out map[string]float64) error {
	// TASK_REGION entry: 64 processors each enter an empty region many
	// times at the given nesting depth; ns per entry per processor.
	const procs, entries = 64, 2000
	regionNS := func(depth int) float64 {
		return float64(best(3, func() {
			fxOn(procs, func(p *fx.Proc) {
				nestRegions(p, depth, func() {
					n := p.NumberOfProcessors()
					part := p.Partition(group.Sub("lo", n/2), group.Sub("hi", n-n/2))
					for i := 0; i < entries; i++ {
						p.TaskRegion(part, func(*fx.Region) {})
					}
				})
			})
		})) / (procs * entries)
	}
	out["fx.region_depth1_ns"], out["fx.region_depth6_ns"] = regionNS(1), regionNS(6)

	// The paper's nested divide-and-conquer: quicksort of 65,536 keys.
	sortOn := func(p int) (time.Duration, float64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res := qsort.Run(machine.New(p, sim.Paragon()), 65536, 1)
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		if !res.Sorted {
			return 0, 0, fmt.Errorf("qsort probe at P=%d: output not sorted", p)
		}
		return d, float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), nil
	}
	d, mb, err := sortOn(256)
	if err != nil {
		return err
	}
	out["fx.qsort_p256_ms"], out["fx.qsort_p256_alloc_mb"] = ms(d), mb
	if _, mb, err = sortOn(1024); err != nil {
		return err
	}
	out["fx.qsort_p1024_alloc_mb"] = mb
	return nil
}

func probeDist(_ *env, out map[string]float64) error {
	const procs, n, calls = 16, 256, 20
	g := group.World(procs)
	per := func(move func(p *machine.Proc, dst, src *dist.Array[float64])) float64 {
		return us(best(3, func() {
			runOn(procs, "goroutine", func(p *machine.Proc) {
				src := dist.New[float64](p, dist.RowBlock2D(g, n, n))
				dst := dist.New[float64](p, dist.ColBlock2D(g, n, n))
				for i := 0; i < calls; i++ {
					move(p, dst, src)
				}
			})
		})) / calls
	}
	out["dist.assign_us"] = per(func(p *machine.Proc, dst, src *dist.Array[float64]) { dist.Assign(p, dst, src) })
	out["dist.transpose_us"] = per(func(p *machine.Proc, dst, src *dist.Array[float64]) { dist.Transpose2D(p, dst, src) })
	return nil
}

// probeApps times one data-parallel run of each sensor program at the
// paper's sizes on 64 processors: the app kernels with little around them.
func probeApps(_ *env, out map[string]float64) error {
	cfg := paperTable1()
	for _, rs := range table1Rows(cfg, sim.Paragon()) {
		if rs.label == "ffthist_b" {
			continue
		}
		app, _, _ := strings.Cut(rs.label, "_")
		out["apps."+app+"_dp_ms"] = ms(best(2, func() { rs.runDP(machine.New(cfg.Procs, sim.Paragon())) }))
	}
	return nil
}

func probeTelemetry(_ *env, out map[string]float64) error {
	// The BENCH_scale telemetry stack (1-in-64 sampling, streaming sinks,
	// sparse comm matrix, overhead budget) over an untraced run, P=1024.
	const procs = 1024
	coop := mustEngine("coop")
	cfg, mp := scaleConfig(procs)
	scfg, err := trace.ParseSampleSpec("1/64:1")
	if err != nil {
		return err
	}
	sampled := best(3, func() {
		sampler := trace.NewSampler(procs, scfg)
		budget := trace.NewOverheadBudget()
		sink, util, cm := metrics.NewStreamSink(procs), trace.NewUtilSink(procs), trace.NewCommMatrix(procs)
		m := machine.New(procs, sim.Paragon())
		m.SetEngine(coop)
		m.SetTracer(trace.Tee(budget.Meter("metrics", sink), budget.Meter("util", util), budget.Meter("comm", cm)))
		m.SetSampler(sampler)
		budget.SetSampler(sampler)
		budget.Start()
		ffthist.Run(m, cfg, mp)
		_, _, _ = sink.Snapshot(), metrics.UtilDistribution(util.Snapshot()), trace.TopCommEdges(cm.Snapshot(), 64)
		budget.Finish()
	})
	plain := best(3, func() { scaleRun(nil, -1, procs, coop) })
	out["trace.sampled_overhead_x"] = float64(sampled) / float64(plain)

	// Sink cost per event: replay one recorded event stream into a fresh
	// sink of each kind.
	const evProcs = 64
	col := &trace.Collector{}
	m := machine.New(evProcs, sim.Paragon())
	m.SetTracer(col)
	ecfg, emp := scaleConfig(evProcs)
	ffthist.Run(m, ecfg, emp)
	evs := col.Events()
	perEvent := func(newSink func() machine.Tracer) float64 {
		return float64(best(5, func() {
			s := newSink()
			for _, ev := range evs {
				s.Record(ev)
			}
		})) / float64(len(evs))
	}
	out["trace.collector_ns_per_event"] = perEvent(func() machine.Tracer { return &trace.Collector{} })
	out["metrics.stream_ns_per_event"] = perEvent(func() machine.Tracer { return metrics.NewStreamSink(evProcs) })
	return nil
}

func probeSkeleton(e *env, out map[string]float64) error {
	const procs = 64
	cost := sim.Paragon()
	cfg, mp := scaleConfig(procs)
	var sk *skeleton.Skeleton
	var err error
	out["skeleton.capture_ms"] = ms(best(3, func() {
		sink := skeleton.NewSink(cost, "")
		m := machine.New(procs, cost)
		m.SetTracer(sink)
		ffthist.Run(m, cfg, mp)
		sk, err = sink.Skeleton()
	}))
	if err != nil {
		return err
	}
	out["skeleton.recost_us"] = us(best(5, func() { _, err = sk.Recost(skeleton.Params{}) }))
	if err != nil {
		return err
	}
	var data []byte
	out["skeleton.encode_ms"] = ms(best(5, func() { data, err = sk.Encode() }))
	if err != nil {
		return err
	}
	out["skeleton.decode_ms"] = ms(best(5, func() { _, err = skeleton.Decode(data) }))
	if err != nil {
		return err
	}

	dir := filepath.Join(e.tmp, "probe-store")
	key := skeleton.StoreKey{App: "probe", Params: "scale", Mapping: mp.String(), P: procs, Cost: cost}
	n := 0
	out["skeleton.store_put_ms"] = ms(best(5, func() {
		k := key
		k.Params = fmt.Sprintf("scale-%d", n) // a new key each pass, so every Put writes
		n++
		if perr := skeleton.NewStore(dir).Put(k, sk); perr != nil {
			err = perr
		}
	}))
	if err != nil {
		return err
	}
	key.Params = "scale-0"
	found := true
	out["skeleton.store_get_disk_ms"] = ms(best(5, func() {
		_, _, ok := skeleton.NewStore(dir).Get(key)
		found = found && ok
	}))
	warm := skeleton.NewStore(dir)
	warm.Get(key)
	out["skeleton.store_get_mem_us"] = us(best(20, func() {
		_, _, ok := warm.Get(key)
		found = found && ok
	}))
	if !found {
		return fmt.Errorf("skeleton probe: store lost key %s", key.Key())
	}
	path := filepath.Join(e.tmp, "probe-fsatomic.bin")
	out["fsatomic.write_ms"] = ms(best(5, func() { err = fsatomic.WriteFile(path, data) }))
	return err
}

func probeMapping(e *env, out map[string]float64) error {
	cost, cfg := sim.Paragon(), quick20Table1()
	app := ffthist.Config{N: 64, Sets: cfg.Sets, Bins: 64}
	opt := mapping.BuildOptions{Workers: 1, CacheDir: filepath.Join(e.tmp, "probe-cache")}
	if err := os.MkdirAll(opt.CacheDir, 0o755); err != nil {
		return err
	}
	build := func(want string) (mapping.Model, error) {
		model, src, err := ffthist.MeasuredModel(cost, app, cfg.Procs, opt)
		if err == nil && src.String() != want {
			err = fmt.Errorf("mapping probe: tables came from %q, want %q", src, want)
		}
		return model, err
	}
	mapping.ResetTableMemo()
	model, err := build("computed")
	if err != nil {
		return err
	}
	out["mapping.memo_hit_us"] = us(best(20, func() { _, err = build("memory") }))
	if err != nil {
		return err
	}
	out["mapping.disk_hit_ms"] = ms(best(5, func() {
		mapping.ResetTableMemo()
		_, err = build("disk")
	}))
	if err != nil {
		return err
	}
	goal := 2.05 / model.DPT[cfg.Procs]
	out["mapping.optimize_us"] = us(best(5, func() { _, err = mapping.Optimize(model, goal) }))
	if err != nil {
		return err
	}
	const jobs = 1000
	out["sweep.map_overhead_us"] = us(best(5, func() {
		sweep.Map(1, jobs, func(int) (struct{}, error) { return struct{}{}, nil })
	})) / jobs
	return nil
}

// probeTable1 runs the quick-size campaign once under its own span
// recorder and reads the row and layer split off the spans.
func probeTable1(e *env, out map[string]float64) error {
	rec := &recorder{}
	c := benchCase{name: "probe", run: table1Rep(e, "quick20", quick20Table1(), "computed")}
	total, err := timeRep(c, rec, true, "probe")
	if err != nil {
		return err
	}
	var model, run float64
	for _, s := range rec.spans {
		d := s.End - s.Start
		switch kind, label, _ := strings.Cut(s.Name, "."); {
		case strings.HasPrefix(label, "MeasuredModel."):
			out["mapping.build_"+strings.TrimPrefix(label, "MeasuredModel.")+"_ms"] = d
			model += d
		case strings.HasPrefix(label, "row."):
			out["table1.row_"+strings.TrimPrefix(label, "row.")+"_ms"] = d
		case kind == "apps":
			run += d
		}
	}
	out["table1.model_share"], out["table1.run_share"] = model/total, run/total
	return nil
}

// probeServe runs a reduced serve-mix session and reports the serving
// layer's own numbers from it.
func probeServe(e *env, out map[string]float64) error {
	short := *e
	short.short, short.traced = true, false
	res, err := serveMix(&short, nil)
	if err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("serve probe: %s", res.failures[0])
	}
	for k, v := range res.extra {
		out[k] = v
	}
	return nil
}
