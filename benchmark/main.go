// Command benchmark is the repository's one repeatable host-time benchmark:
// four workloads timed as best-of-N short repetitions, every rep checked
// against committed goldens, plus a traced run that records harness-side
// spans and runs the layer probes. See README.md beside this file.
//
//	bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//	bash benchmark/run.sh -stability K
//	bash benchmark/run.sh -update-golden
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// processStart is taken at package initialisation: setup_s runs from here
// to the first timed rep.
var processStart = time.Now()

// outDir receives the result and span files, relative to the checkout root.
const outDir = "benchmark/out"

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	// prepare does the untimed set-up of a rep-based workload — at least
	// three warm-up calls — and returns the cases to time.
	prepare func(*env) ([]benchCase, error)
	// overheadCase is the case a traced run also times untraced, to report
	// tracing.overhead_x (the cold paper-size campaign is too long to time
	// twice, so table1-cold uses alt).
	overheadCase string
	// run replaces prepare for a workload that is not rep-based.
	run func(*env, *recorder) (*runResult, error)
}

var workloads = []workload{
	{name: "table1-cold", overheadCase: "alt", prepare: table1Cold,
		why: "what the paper's user waits for: cold Table 1 at paper sizes, app kernels dominant; alt is the same campaign with the kernels shrunk"},
	{name: "table1-warm", overheadCase: "op", prepare: table1Warm,
		why: "second run of the CLI: set-up writes both disk tiers, op reads the cost-table cache, alt decodes and re-costs stored skeletons"},
	{name: "sim-scale", overheadCase: "op", prepare: simScale,
		why: "one simulated run at P=4096 with the machine core dominant: default engine (op) against coop (alt); caches and serve do nothing"},
	{name: "serve-mix", run: serveMix,
		why: "an fxserve client's view: closed loop, 2 clients, cold /optimize campaigns (op) among duplicate, job, stats and measure requests (alt)"},
}

// metricDef is one line of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms", "ms", "lower", 0.25},
	{"alt_ms", "ms", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.02},
	{"mallocs_k", "count", "lower", 0.02},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "machine.new_us_per_proc", Unit: "us"},
	{Name: "machine.msg_goroutine_ns", Unit: "ns"},
	{Name: "machine.msg_coop_ns", Unit: "ns"},
	{Name: "machine.handoff_goroutine_ns", Unit: "ns"},
	{Name: "machine.handoff_coop_ns", Unit: "ns"},
	{Name: "machine.us_per_proc_p1024", Unit: "us"},
	{Name: "machine.us_per_proc_p4096", Unit: "us"},
	{Name: "machine.flatness_x", Unit: "x"},
	{Name: "machine.coop_flatness_x", Unit: "x"},
	{Name: "machine.mallocs_per_proc", Unit: "count"},
	{Name: "comm.barrier_us", Unit: "us"},
	{Name: "comm.bcast_us", Unit: "us"},
	{Name: "comm.allreduce_us", Unit: "us"},
	{Name: "group.partition_us", Unit: "us"},
	{Name: "fx.region_depth1_ns", Unit: "ns"},
	{Name: "fx.region_depth6_ns", Unit: "ns"},
	{Name: "fx.qsort_p256_ms", Unit: "ms"},
	{Name: "fx.qsort_p256_alloc_mb", Unit: "MB"},
	{Name: "fx.qsort_p1024_alloc_mb", Unit: "MB"},
	{Name: "dist.assign_us", Unit: "us"},
	{Name: "dist.transpose_us", Unit: "us"},
	{Name: "apps.ffthist_dp_ms", Unit: "ms"},
	{Name: "apps.radar_dp_ms", Unit: "ms"},
	{Name: "apps.stereo_dp_ms", Unit: "ms"},
	{Name: "trace.sampled_overhead_x", Unit: "x"},
	{Name: "trace.collector_ns_per_event", Unit: "ns"},
	{Name: "metrics.stream_ns_per_event", Unit: "ns"},
	{Name: "skeleton.capture_ms", Unit: "ms"},
	{Name: "skeleton.recost_us", Unit: "us"},
	{Name: "skeleton.encode_ms", Unit: "ms"},
	{Name: "skeleton.decode_ms", Unit: "ms"},
	{Name: "skeleton.store_get_mem_us", Unit: "us"},
	{Name: "skeleton.store_get_disk_ms", Unit: "ms"},
	{Name: "skeleton.store_put_ms", Unit: "ms"},
	{Name: "fsatomic.write_ms", Unit: "ms"},
	{Name: "mapping.build_ffthist_a_ms", Unit: "ms"},
	{Name: "mapping.build_ffthist_b_ms", Unit: "ms"},
	{Name: "mapping.build_radar_ms", Unit: "ms"},
	{Name: "mapping.build_stereo_ms", Unit: "ms"},
	{Name: "mapping.optimize_us", Unit: "us"},
	{Name: "mapping.memo_hit_us", Unit: "us"},
	{Name: "mapping.disk_hit_ms", Unit: "ms"},
	{Name: "sweep.map_overhead_us", Unit: "us"},
	{Name: "table1.model_share", Unit: "share"},
	{Name: "table1.run_share", Unit: "share"},
	{Name: "table1.row_ffthist_a_ms", Unit: "ms"},
	{Name: "table1.row_ffthist_b_ms", Unit: "ms"},
	{Name: "table1.row_radar_ms", Unit: "ms"},
	{Name: "table1.row_stereo_ms", Unit: "ms"},
	{Name: "serve.cold_p50_ms", Unit: "ms"},
	{Name: "serve.cold_p99_ms", Unit: "ms"},
	{Name: "serve.dup_p50_ms", Unit: "ms"},
	{Name: "serve.dup_p99_ms", Unit: "ms"},
	{Name: "serve.job_get_p50_ms", Unit: "ms"},
	{Name: "serve.stats_p50_ms", Unit: "ms"},
	{Name: "serve.req_per_s", Unit: "1/s"},
	{Name: "serve.dedup_hit_ratio", Unit: "share"},
	{Name: "serve.campaigns_run", Unit: "count"},
	{Name: "op.med_ms", Unit: "ms"},
	{Name: "op.spread", Unit: "share"},
	{Name: "alt.med_ms", Unit: "ms"},
	{Name: "alt.spread", Unit: "share"},
	{Name: "host.alu_start_ms", Unit: "ms"},
	{Name: "host.alu_end_ms", Unit: "ms"},
	{Name: "host.mem_start_ms", Unit: "ms"},
	{Name: "host.mem_end_ms", Unit: "ms"},
	{Name: "tracing.overhead_x", Unit: "x"},
}

func init() {
	for i := range perLayer {
		perLayer[i].Better = "lower"
		switch perLayer[i].Name {
		case "serve.req_per_s", "serve.dedup_hit_ratio":
			perLayer[i].Better = "higher"
		}
	}
}

// metric is one reported value; output is the line the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// caseSummary is the within-run statistics of one case's reps.
type caseSummary struct {
	Reps   int     `json:"reps"`
	Min    float64 `json:"min_ms"`
	LowerQ float64 `json:"lower_quartile_ms"`
	Median float64 `json:"med_ms"`
	Spread float64 `json:"spread"`
	caseSamples
}

func summarize(cs *caseSamples, traced bool) caseSummary {
	xs := cs.Untraced
	if traced {
		xs = cs.Traced
	}
	return caseSummary{Reps: len(xs), Min: minOf(xs), LowerQ: lowerQuartile(xs), Median: median(xs), Spread: spread(xs), caseSamples: *cs}
}

// resultFile is what every run leaves in benchmark/out: the numbers, where
// they were measured, and how noisy the host was while they were.
type resultFile struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Traced     bool                   `json:"traced"`
	Host       hostInfo               `json:"host"`
	Cases      map[string]caseSummary `json:"cases"`
	Canaries   map[string]canaries    `json:"canaries"`
	Output     output                 `json:"output"`
	Failures   []string               `json:"failures,omitempty"`
	Layers     map[string]float64     `json:"layer_self_ms,omitempty"`
	Spans      []span                 `json:"spans,omitempty"`
	Claim      *string                `json:"claim"` // this benchmark claims no gain
	WallSecond float64                `json:"wall_s"`
}

func main() {
	name := flag.String("workload", "", "workload to run: table1-cold, table1-warm, sim-scale or serve-mix")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", nominalSeconds, "nominal length of the measured phase; scales the fixed rep counts")
	traced := flag.Int("trace", 0, "1: record spans, run the layer probes, report per-layer metrics")
	stability := flag.Int("stability", 0, "run two interleaved sets of K runs per workload and check them against the bounds")
	update := flag.Bool("update-golden", false, "run every workload once and rewrite "+goldenDir)
	flag.Parse()

	// One engine choice, the program's own default.
	os.Unsetenv("FXPAR_ENGINE")

	switch {
	case *stability > 0:
		os.Exit(runStability(*stability))
	case *update:
		fail(updateGoldens())
		return
	}
	gold, err := loadGoldens(false)
	fail(err)
	w := findWorkload(*name)
	if w == nil {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	e := &env{seed: *seed, seconds: *seconds, traced: *traced != 0, gold: gold}
	out, err := runWorkload(w, e)
	fail(err)
	line, err := json.Marshal(out)
	fail(err)
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runWorkload performs one run and writes its result file.
func runWorkload(w *workload, e *env) (output, error) {
	tmp, err := newTmp()
	if err != nil {
		return output{}, err
	}
	defer os.RemoveAll(tmp)
	e.tmp = tmp

	can := map[string]canaries{}
	var rec *recorder
	if e.traced {
		rec = &recorder{}
		can["start"] = runCanaries()
	}
	var res *runResult
	if w.run != nil {
		res, err = w.run(e, rec)
	} else {
		var cases []benchCase
		if cases, err = w.prepare(e); err == nil {
			res = runCases(e, rec, cases, w.overheadCase)
		}
	}
	if err != nil {
		return output{}, fmt.Errorf("%s: %w", w.name, err)
	}
	// The peak is read before the end canaries allocate their 64 MB.
	rss := rssPeakMB()
	can["end"] = runCanaries()

	op, alt := summarize(res.cases["op"], e.traced), summarize(res.cases["alt"], e.traced)
	values := map[string]float64{}
	defs := endToEnd
	if e.traced {
		defs = perLayer
		if values, err = probes(e); err != nil {
			return output{}, fmt.Errorf("%s: %w", w.name, err)
		}
		for k, v := range res.extra {
			values[k] = v
		}
		values["op.med_ms"], values["op.spread"] = op.Median, op.Spread
		values["alt.med_ms"], values["alt.spread"] = alt.Median, alt.Spread
		values["host.alu_start_ms"], values["host.mem_start_ms"] = can["start"].ALUms, can["start"].MemMS
		values["host.alu_end_ms"], values["host.mem_end_ms"] = can["end"].ALUms, can["end"].MemMS
		values["tracing.overhead_x"] = res.overheadX
	} else {
		values["setup_s"] = res.setupS
		values["op_ms"], values["alt_ms"] = res.opMS, res.altMS
		values["alloc_mb"], values["mallocs_k"] = res.allocBytes/(1<<20), res.mallocs/1e3
		values["rss_peak_mb"] = rss
	}

	out := output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return output{}, fmt.Errorf("%s: metric %s was not measured", w.name, d.Name)
		}
		out.Metrics[d.Name] = metric{v, d.Unit}
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED", f)
	}

	rf := resultFile{
		Workload: w.name, Seed: e.seed, Seconds: e.seconds, Traced: e.traced, Host: readHost(),
		Cases:    map[string]caseSummary{"op": op, "alt": alt},
		Canaries: can, Output: out, Failures: res.failures,
		WallSecond: time.Since(processStart).Seconds(),
	}
	file := w.name + ".result.json"
	if e.traced {
		rf.Spans, rf.Layers = rec.spans, selfByName(rec.spans)
		file = w.name + ".trace.json"
	}
	return out, writeJSON(filepath.Join(outDir, file), rf)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// updateGoldens runs every workload once, untraced, recording each rep's
// output as the new golden instead of comparing it.
func updateGoldens() error {
	gold, err := loadGoldens(true)
	if err != nil {
		return err
	}
	for i := range workloads {
		out, err := runWorkload(&workloads[i], &env{seed: 1, seconds: 1, gold: gold})
		if err != nil {
			return err
		}
		if !out.Correct {
			return fmt.Errorf("%s: %d of %d operations failed; goldens not written", workloads[i].name, out.Failed, out.Attempted)
		}
	}
	// The reduced-size campaign only go test -short uses.
	if err := table1Rep(&env{gold: gold}, "quick16", quick16Table1(), "computed")(nil, -1); err != nil {
		return err
	}
	return gold.save()
}
