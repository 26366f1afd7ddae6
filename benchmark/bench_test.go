package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// The benchmark writes its result files and scratch directory relative to
// the repository root, where BENCHMARK.json is.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestStatHelpers(t *testing.T) {
	if got := minOf([]float64{3, 1, 2}); got != 1 {
		t.Errorf("minOf = %v, want 1", got)
	}
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8}, 1.5, 8, 9.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if p50, p99 := percentile(xs, 50), percentile(xs, 99); p50 != 50 || p99 != 99 {
		t.Errorf("percentile p50, p99 = %v, %v, want 50, 99", p50, p99)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "rep", Start: 0, End: 100, Parent: -1},
		{Name: "row", Start: 10, End: 60, Parent: 0},
		{Name: "model", Start: 10, End: 40, Parent: 1},
		{Name: "run", Start: 45, End: 60, Parent: 1},
		{Name: "row", Start: 50, End: 90, Parent: 0},   // overlaps its sibling by 10
		{Name: "late", Start: 95, End: 120, Parent: 0}, // runs past its parent
	}
	want := []float64{100 - 50 - 30 - 5, 50 - 30 - 15, 30, 15, 40, 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := selfByName(spans)["row"]; got != 45 {
		t.Errorf("selfByName[row] = %v, want 45", got)
	}
	var none *recorder
	none.end(none.begin("x", -1, "")) // the untraced run records nothing
}

func TestInterleaveSpreadsCasesEvenly(t *testing.T) {
	if got, want := interleave([]int{2, 8}), []int{1, 1, 0, 1, 1, 1, 1, 0, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("interleave(2, 8) = %v, want %v", got, want)
	}
	if got, want := interleave([]int{3, 3}), []int{0, 1, 0, 1, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("interleave(3, 3) = %v, want %v", got, want)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	render := func(seed int64) string {
		data, err := json.Marshal(buildSchedule(seed, fullServe))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if render(7) != render(7) {
		t.Error("same seed gave two schedules")
	}
	if render(7) == render(8) {
		t.Error("seeds 7 and 8 gave the same schedule")
	}

	sched := buildSchedule(7, fullServe)
	if len(sched) != fullServe.bodies-fullServe.setupBodies {
		t.Fatalf("%d segments, want %d", len(sched), fullServe.bodies-fullServe.setupBodies)
	}
	answered := map[int]bool{}
	for i := 0; i < fullServe.setupBodies; i++ {
		answered[i] = true
	}
	lastOfApp := map[int]int{}
	for n, seg := range sched {
		app := seg.Cold % len(serveApps)
		if answered[seg.Cold] || seg.Cold < lastOfApp[app] {
			t.Errorf("segment %d: cold body %d repeats or breaks ascending P within its app", n, seg.Cold)
		}
		lastOfApp[app] = seg.Cold
		for c, fillers := range seg.Fillers {
			if len(fillers) != fullServe.fillers[c] {
				t.Errorf("segment %d client %d: %d fillers, want %d", n, c, len(fillers), fullServe.fillers[c])
			}
			for _, r := range fillers {
				if (r.Class == classDup || r.Class == classJob) && !answered[r.Body] {
					t.Errorf("segment %d: %s of body %d before its cold request finished", n, r.Class, r.Body)
				}
			}
		}
		answered[seg.Cold] = true
	}
}

// TestSpecMatchesCode pins BENCHMARK.json to the code in both directions and
// to the limits of the driver's contract.
func TestSpecMatchesCode(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has extra key %q", k)
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, code's nominalSeconds = %d", spec.RunSeconds, nominalSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		if d.Bound > 0.25 || d.Bound > endToEnd[0].Bound {
			t.Errorf("metric %s: bound %v is above the contract's 0.25 or above setup_s's", d.Name, d.Bound)
		}
		seen[d.Name] = true
	}
}

func shortEnv(t *testing.T, traced bool) *env {
	t.Helper()
	gold, err := loadGoldens(false)
	if err != nil {
		t.Fatal(err)
	}
	return &env{seed: 1, seconds: nominalSeconds, short: true, traced: traced, gold: gold}
}

// TestWorkloadsShort runs every workload with one rep at reduced sizes: all
// reps match their goldens and every end-to-end metric is reported.
func TestWorkloadsShort(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			out, err := runWorkload(w, shortEnv(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Attempted < 2 {
				t.Errorf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want the %d end-to-end ones", len(out.Metrics), len(endToEnd))
			}
			for name, m := range out.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// TestTracedRunReportsEveryLayer checks the traced run end to end: it emits
// exactly the per-layer metrics BENCHMARK.json names and records spans.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("the layer probes take about 15 s")
	}
	out, err := runWorkload(findWorkload("table1-cold"), shortEnv(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct {
		t.Errorf("traced run failed %d of %d operations", out.Failed, out.Attempted)
	}
	if len(out.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, want the %d per-layer ones", len(out.Metrics), len(perLayer))
	}
	for name, m := range out.Metrics {
		// One rep per case has no spread; everything else is a measurement.
		zeroOK := name == "op.spread" || name == "alt.spread"
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || (m.Value == 0 && !zeroOK) {
			t.Errorf("%s = %v, want a positive number", name, m.Value)
		}
	}
	var rf resultFile
	data, err := os.ReadFile(outDir + "/table1-cold.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		t.Fatal(err)
	}
	if len(rf.Spans) == 0 || rf.Layers["mapping.MeasuredModel.radar"] <= 0 {
		t.Errorf("trace file has %d spans and layer self times %v", len(rf.Spans), rf.Layers)
	}
	if rf.Host.NProc < 1 || rf.Host.GoVersion == "" || rf.Claim != nil {
		t.Errorf("trace file host record %+v, claim %v", rf.Host, rf.Claim)
	}
}

// TestCorruptGoldenFailsTheRun: a rep whose output differs from its golden
// is a failed operation, and the run reports itself incorrect.
func TestCorruptGoldenFailsTheRun(t *testing.T) {
	e := shortEnv(t, false)
	for k := range e.gold.SimScale {
		e.gold.SimScale[k] += 1e-9
	}
	out, err := runWorkload(findWorkload("sim-scale"), e)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed != out.Attempted {
		t.Errorf("corrupt golden: correct=%v, %d of %d operations failed; want all failed", out.Correct, out.Failed, out.Attempted)
	}
}

func TestGoldenEnginesAgree(t *testing.T) {
	g := shortEnv(t, false).gold
	if len(g.SimScale) != 2 || g.SimScale["coop"] != g.SimScale["goroutine"] {
		t.Errorf("sim-scale goldens %v: the engines must agree on the makespan", g.SimScale)
	}
	if len(g.Serve) != fullServe.bodies+measureBodies {
		t.Errorf("%d serve goldens, want %d", len(g.Serve), fullServe.bodies+measureBodies)
	}
}
