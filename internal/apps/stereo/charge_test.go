package stereo

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
			st.New(p, dist.New[float64](p.Proc, st.Layout(p.Group())), nil)(0)
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
// charged from shape returns the value, and records the events, statistics
// and skeleton, of the same cell computing its values, under both engine
// families: at the quick size for every p ≤ 20, at the paper size from 1 to
// 64 processors. The value MeasuredModel tabulates agrees too.
func TestChargedCellsMatchComputed(t *testing.T) {
	quick := make([]int, 20)
	for i := range quick {
		quick[i] = i + 1
	}
	for _, tc := range []struct {
		cfg Config
		ps  []int
	}{
		{Config{W: 64, H: 24, Disparities: 8, Window: 2}, quick},
		{DefaultConfig(), []int{1, 2, 7, 16, 33, 64}},
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
					where := fmt.Sprintf("W=%d cell %d on %d procs under %s", tc.cfg.W, s, procs, eng.Name())
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
