package sensor

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/apps/radar"
	"fxpar/internal/apps/stereo"
	"fxpar/internal/fault"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
	"fxpar/internal/trace"
)

// runner runs a program under a mapping and returns its Out and its Result
// with the values cleared, leaving virtual time — Stream, Makespan,
// statistics — to compare.
type runner func(*machine.Machine, mapping.Mapping) (Out, any)

// recorded is everything one run shows.
type recorded struct {
	out      Out
	result   any
	events   []machine.Event
	skeleton []byte
}

func record(t *testing.T, eng machine.Engine, plan *fault.Plan, run func(*machine.Machine) (Out, any)) recorded {
	t.Helper()
	m := machine.New(64, sim.Paragon())
	m.SetEngine(eng)
	m.SetFaults(plan.Machine())
	var col trace.Collector
	sink := skeleton.NewSink(sim.Paragon(), "")
	m.SetTracer(trace.Tee(&col, sink))
	var r recorded
	r.out, r.result = run(m)
	r.events = col.Events()
	sk, err := sink.Skeleton()
	if err == nil {
		r.skeleton, err = sk.Encode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// goldenRows reads the Table 1 golden the paper-size campaign is pinned to.
func goldenRows(t *testing.T) []struct {
	DPThroughput, DPLatency, TaskThroughput, TaskLatency float64
	Best                                                 string
} {
	b, err := os.ReadFile("../../experiments/testdata/table1.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		Rows []struct {
			DPThroughput, DPLatency, TaskThroughput, TaskLatency float64
			Best                                                 string
		}
	}
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	return g.Rows
}

// TestChargedRunsMatchComputed: the eight runs behind the golden Table 1 —
// each row's data-parallel baseline and chosen mapping at paper size — and
// the radar and stereo rows again under a chaos plan give, through App.Run,
// the golden's Stream and the computing package Run's Stream and Makespan,
// and record its events and skeleton, under both engine families. The
// charged twins' statistics match too, and radar's twin reports the
// computing run's detection counts.
func TestChargedRunsMatchComputed(t *testing.T) {
	ff := func(n int) (run, twin runner) {
		cfg := ffthist.Config{N: n, Sets: 8, Bins: 64}
		clearValues := func(r ffthist.Result) (Out, any) { r.Hists = nil; return Out{r.Stream, r.Makespan}, r }
		return func(m *machine.Machine, mp mapping.Mapping) (Out, any) { return clearValues(ffthist.Run(m, cfg, mp)) },
			func(m *machine.Machine, mp mapping.Mapping) (Out, any) {
				return clearValues(ffthist.Simulate(m, cfg, mp))
			}
	}
	ste := stereo.DefaultConfig()
	steValues := func(r stereo.Result) (Out, any) { r.DepthSum = nil; return Out{r.Stream, r.Makespan}, r }
	progs := []struct {
		name      string
		n         int
		run, twin runner
		chosen    mapping.Mapping
	}{
		{name: "ffthist", chosen: mapping.Mapping{Modules: 3, Stages: []int{21}, WideModules: 1, WideStages: []int{22}}},
		{name: "ffthist", n: 512, chosen: mapping.Mapping{Modules: 2, Stages: []int{32}}},
		{name: "radar", chosen: mapping.Mapping{Modules: 3, Stages: []int{21}},
			run: func(m *machine.Machine, mp mapping.Mapping) (Out, any) {
				r := radar.Run(m, radar.DefaultConfig(), mp)
				return Out{r.Stream, r.Makespan}, r
			},
			twin: func(m *machine.Machine, mp mapping.Mapping) (Out, any) {
				r := radar.Simulate(m, radar.DefaultConfig(), mp)
				return Out{r.Stream, r.Makespan}, r
			}},
		{name: "stereo", chosen: mapping.Mapping{Modules: 3, Stages: []int{21}, WideModules: 1, WideStages: []int{22}},
			run:  func(m *machine.Machine, mp mapping.Mapping) (Out, any) { return steValues(stereo.Run(m, ste, mp)) },
			twin: func(m *machine.Machine, mp mapping.Mapping) (Out, any) { return steValues(stereo.Simulate(m, ste, mp)) }},
	}
	progs[0].run, progs[0].twin = ff(256)
	progs[1].run, progs[1].twin = ff(512)

	type runCase struct {
		app       App
		run, twin runner
		mp        mapping.Mapping
		thr, lat  float64 // the golden's; zero under chaos
		plan      *fault.Plan
	}
	var cases []runCase
	for i, row := range goldenRows(t) {
		pr := progs[i]
		if got := pr.chosen.String(); got != row.Best {
			t.Fatalf("row %d: test runs %s, golden chose %s", i, got, row.Best)
		}
		a, err := ByName(pr.name, false, 8, pr.n)
		if err != nil {
			t.Fatal(err)
		}
		dp := a.DataParallel(64)
		cases = append(cases, runCase{a, pr.run, pr.twin, dp, row.DPThroughput, row.DPLatency, nil},
			runCase{a, pr.run, pr.twin, pr.chosen, row.TaskThroughput, row.TaskLatency, nil})
	}
	chaos, err := fault.Parse("7:flaky")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range append(cases[4:6:6], cases[6:8]...) {
		c.thr, c.lat, c.plan = 0, 0, chaos
		cases = append(cases, c)
	}
	for _, c := range cases {
		for _, eng := range []machine.Engine{machine.Goroutine(), machine.Coop(1)} {
			where := fmt.Sprintf("%s %s %s under %s (chaos %v)", c.app.Name, c.app.Size, c.mp, eng.Name(), c.plan)
			want := record(t, eng, c.plan, func(m *machine.Machine) (Out, any) { return c.run(m, c.mp) })
			got := record(t, eng, c.plan, func(m *machine.Machine) (Out, any) { return c.app.Run(m, c.mp), nil })
			if got.out != want.out || !reflect.DeepEqual(got.events, want.events) || !reflect.DeepEqual(got.skeleton, want.skeleton) {
				t.Fatalf("%s: App.Run differs from computing: out %+v vs %+v, %d vs %d events, skeletons equal %v",
					where, got.out, want.out, len(got.events), len(want.events), reflect.DeepEqual(got.skeleton, want.skeleton))
			}
			if c.plan == nil && (got.out.Stream.Throughput != c.thr || got.out.Stream.Latency != c.lat) {
				t.Fatalf("%s: stream %+v, golden throughput %v latency %v", where, got.out.Stream, c.thr, c.lat)
			}
			if c.twin == nil {
				continue
			}
			twin := record(t, eng, c.plan, func(m *machine.Machine) (Out, any) { return c.twin(m, c.mp) })
			if !reflect.DeepEqual(twin, want) {
				t.Fatalf("%s: the charged twin's result, events or skeleton differ from computing", where)
			}
		}
	}
}
