package radar

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fxpar/internal/dist"
	"fxpar/internal/fx"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
	"fxpar/internal/trace"
)

// cellRun is everything one cost-table cell run shows: its value, its full
// event trace, its statistics and its encoded skeleton.
type cellRun struct {
	value    float64
	events   []machine.Event
	stats    machine.RunStats
	skeleton []byte
}

// runCell runs the cell MeasuredModel measures — stage s of the stage table
// in isolation, or the whole program data parallel for one data set when
// s < 0 — on procs processors.
func runCell(t *testing.T, cfg Config, s, procs int, eng machine.Engine) cellRun {
	t.Helper()
	m := machine.New(procs, sim.Paragon())
	m.SetEngine(eng)
	var col trace.Collector
	sink := skeleton.NewSink(sim.Paragon(), "")
	m.SetTracer(trace.Tee(&col, sink))
	var r cellRun
	if s < 0 {
		cfg.Sets = 1
		res := Run(m, cfg, mapping.DataParallel(procs))
		r.value, r.stats = res.Stream.Latency, res.runStats
	} else {
		st := program(cfg)[s]
		r.stats = fx.Run(m, func(p *fx.Proc) {
			st.New(p, dist.New[complex128](p.Proc, st.Layout(p.Group())), nil)(0)
		})
		r.value = r.stats.MakespanTime()
	}
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

// TestChargedCellsMatchComputed: every cost-table cell — each stage alone
// and the data-parallel program, on the processors Cells.Measure gives it —
// run as cells runs it, charged from shape, returns the value, and records
// the events, statistics and skeleton, of the same cell computing its
// values, under both engine families: at the quick size for every p ≤ 20,
// at the paper size from 1 to 64 processors, and at the thresholds 0 and 2
// that keep every element of the threshold cell and none. The value
// MeasuredModel tabulates agrees too.
func TestChargedCellsMatchComputed(t *testing.T) {
	quick := make([]int, 20)
	for i := range quick {
		quick[i] = i + 1
	}
	for _, tc := range []struct {
		cfg Config
		ps  []int
	}{
		{Config{Gates: 64, Rows: 8, Scale: 1.0 / 64, Threshold: 0.05}, quick},
		{DefaultConfig(), []int{1, 2, 7, 16, 33, 64}},
		{Config{Gates: 64, Rows: 8, Scale: 1.0 / 64, Threshold: 0}, []int{1, 3, 8}},
		{Config{Gates: 64, Rows: 8, Scale: 1.0 / 64, Threshold: 2}, []int{1, 3, 8}},
	} {
		mapping.ResetTableMemo()
		model, _, err := MeasuredModel(sim.Paragon(), tc.cfg, slices.Max(tc.ps), mapping.BuildOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		charged := tc.cfg
		charged.charge = true
		for _, p := range tc.ps {
			for s := -1; s < len(model.StageNames); s++ {
				procs, v := min(p, slices.Min(model.Caps)), model.DPT[p]
				if s >= 0 {
					procs, v = min(p, model.Caps[s]), model.StageT[s][p]
				}
				for _, eng := range []machine.Engine{machine.Goroutine(), machine.Coop(1)} {
					where := fmt.Sprintf("Gates=%d cell %d on %d procs under %s", tc.cfg.Gates, s, procs, eng.Name())
					want, got := runCell(t, tc.cfg, s, procs, eng), runCell(t, charged, s, procs, eng)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: charged run differs from computed: value %v vs %v, %d vs %d events, stats equal %v, skeletons equal %v",
							where, got.value, want.value, len(got.events), len(want.events),
							reflect.DeepEqual(got.stats, want.stats), reflect.DeepEqual(got.skeleton, want.skeleton))
					}
					if v != want.value {
						t.Fatalf("%s: MeasuredModel tabulates %v, computed %v", where, v, want.value)
					}
				}
			}
		}
	}
}

// TestChargedRadarCountsExact: where a data set does not yield one
// detection per row — none at all with 8 gates at the paper scale, noise
// detections by the thousand with 1024 gates at the quick scale, a few
// extra with 8 gates at scale 1/8 — a charged run still reports exactly
// the computing run's counts. Simulate gives Run's Stream, Kept, Makespan,
// statistics, events and skeleton for a data-parallel, a replicated and a
// pipeline mapping under both engine families, and MeasuredModel tabulates
// the computing data-parallel cell.
func TestChargedRadarCountsExact(t *testing.T) {
	quick := Config{Gates: 64, Rows: 8, Sets: 3, Scale: 1.0 / 64, Threshold: 0.05}
	paper8, quick1024, quick8 := DefaultConfig(), quick, quick
	paper8.Gates, paper8.Sets = 8, 3
	quick1024.Gates = 1024
	quick8.Gates, quick8.Scale = 8, 1.0/8
	const procs = 8
	record := func(eng machine.Engine, run func(*machine.Machine) Result) (Result, []machine.Event, []byte) {
		m := machine.New(procs, sim.Paragon())
		m.SetEngine(eng)
		var col trace.Collector
		sink := skeleton.NewSink(sim.Paragon(), "")
		m.SetTracer(trace.Tee(&col, sink))
		res := run(m)
		sk, err := sink.Skeleton()
		var enc []byte
		if err == nil {
			enc, err = sk.Encode()
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, col.Events(), enc
	}
	for _, cfg := range []Config{paper8, quick1024, quick8} {
		mappings := []mapping.Mapping{
			mapping.WidestDataParallel(procs, cfg.Caps()),
			{Modules: 2, Stages: []int{procs / 2}},
			{Modules: 1, Stages: []int{2, 2, 2, 2}},
		}
		perRow := false
		for _, mp := range mappings {
			for _, eng := range []machine.Engine{machine.Goroutine(), machine.Coop(1)} {
				where := fmt.Sprintf("Gates=%d Rows=%d Scale=%g %s under %s", cfg.Gates, cfg.Rows, cfg.Scale, mp, eng.Name())
				want, wantEv, wantSk := record(eng, func(m *machine.Machine) Result { return Run(m, cfg, mp) })
				got, gotEv, gotSk := record(eng, func(m *machine.Machine) Result { return Simulate(m, cfg, mp) })
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotEv, wantEv) || !reflect.DeepEqual(gotSk, wantSk) {
					t.Fatalf("%s: charged run differs: kept %v vs %v, makespan %v vs %v, %d vs %d events, skeletons equal %v",
						where, got.Kept, want.Kept, got.Makespan, want.Makespan, len(gotEv), len(wantEv), reflect.DeepEqual(gotSk, wantSk))
				}
				for _, k := range want.Kept {
					perRow = perRow || k != cfg.Rows
				}
			}
		}
		if !perRow {
			t.Errorf("Gates=%d Scale=%g: every set yields one detection per row; the case tests nothing", cfg.Gates, cfg.Scale)
		}
		mapping.ResetTableMemo()
		model, _, err := MeasuredModel(sim.Paragon(), cfg, procs, mapping.BuildOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= procs; p++ {
			if want := runCell(t, cfg, -1, min(p, slices.Min(model.Caps)), machine.Goroutine()).value; model.DPT[p] != want {
				t.Errorf("Gates=%d Scale=%g: DPT[%d] = %v, computing cell %v", cfg.Gates, cfg.Scale, p, model.DPT[p], want)
			}
		}
	}
}
