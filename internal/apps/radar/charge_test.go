package radar

import (
	"fmt"
	"reflect"
	"testing"

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

// runCell runs the cell cells measures — stage s in isolation, or the whole
// program data parallel for one data set when s < 0 — on procs processors.
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
		r.stats = fx.Run(m, stageBody(cfg, s))
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
// run as cells runs it (stages charged from shape, the data-parallel cell
// computing) returns the value, and records the events, statistics and
// skeleton, of the same cell computing its values, under both engine
// families: at the quick size for every p ≤ 20, at the paper size from 1 to
// 64 processors. The value cells(cfg) itself returns agrees too.
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
	} {
		cs := cells(tc.cfg)
		closed := BuildModel(sim.Paragon(), tc.cfg, 64)
		charged := tc.cfg
		charged.charge = true
		for _, p := range tc.ps {
			for s := -1; s < len(stageNames); s++ {
				procs := min(p, cs.DPCap)
				if s >= 0 && closed.Caps[s] > 0 {
					procs = min(p, closed.Caps[s])
				}
				as := charged
				if s < 0 {
					as = tc.cfg // the data-parallel cell computes: its report counts detections
				}
				for _, eng := range []machine.Engine{machine.Goroutine(), machine.Coop(1)} {
					where := fmt.Sprintf("Gates=%d cell %d on %d procs under %s", tc.cfg.Gates, s, procs, eng.Name())
					want, got := runCell(t, tc.cfg, s, procs, eng), runCell(t, as, s, procs, eng)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: charged run differs from computed: value %v vs %v, %d vs %d events, stats equal %v, skeletons equal %v",
							where, got.value, want.value, len(got.events), len(want.events),
							reflect.DeepEqual(got.stats, want.stats), reflect.DeepEqual(got.skeleton, want.skeleton))
					}
					m := machine.New(procs, sim.Paragon())
					m.SetEngine(eng)
					v := 0.0
					if s < 0 {
						v = cs.DP(m)
					} else {
						v = cs.Stage(m, s)
					}
					if v != want.value {
						t.Fatalf("%s: cells returns %v, computed %v", where, v, want.value)
					}
				}
			}
		}
	}
}
