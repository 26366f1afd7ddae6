package main

import (
	"fmt"
	"path/filepath"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/apps/radar"
	"fxpar/internal/apps/stereo"
	"fxpar/internal/experiments"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
)

// Campaign sizes. Every campaign is pinned to one worker: two workers on a
// two-core host measure the pool's luck, not the program.
func paperTable1() experiments.Table1Config {
	cfg := experiments.DefaultTable1()
	cfg.Workers = 1
	return cfg
}

// quick20Table1 is the paper's campaign with the app kernels shrunk: the
// same sweep/mapping/fx/comm/machine path on reduced data. P is 20 because
// the quick stereo image (24 rows, window 2) cannot be measured on more
// than 23 processors, and a workload must not contain a failing row.
func quick20Table1() experiments.Table1Config {
	cfg := experiments.QuickTable1()
	cfg.Procs, cfg.Workers = 20, 1
	return cfg
}

func quick16Table1() experiments.Table1Config {
	cfg := experiments.QuickTable1()
	cfg.Workers = 1
	return cfg
}

// table1Rep is one cold-memo Table 1: directly through experiments.Table1
// when untraced, re-expressed row by row under spans when traced. Both are
// checked against the same golden and the expected table source.
func table1Rep(e *env, golden string, cfg experiments.Table1Config, wantSource string) func(*recorder, int) error {
	return func(rec *recorder, parent int) error {
		mapping.ResetTableMemo()
		var rows []experiments.Table1Row
		if rec == nil {
			rows = experiments.Table1(cfg)
		} else {
			rows = spannedTable1(rec, parent, cfg)
		}
		for _, r := range rows {
			if r.ModelSource != wantSource {
				return fmt.Errorf("table1 %s row %s %s: cost tables came from %q, want %q", golden, r.Name, r.Size, r.ModelSource, wantSource)
			}
		}
		return e.gold.checkTable1(golden, rows)
	}
}

func table1Cold(e *env) ([]benchCase, error) {
	opCfg, opGolden := paperTable1(), "paper"
	altCfg, altGolden := quick20Table1(), "quick20"
	if e.short {
		opCfg, opGolden = quick20Table1(), "quick20"
		altCfg, altGolden = quick16Table1(), "quick16"
	}
	op := table1Rep(e, opGolden, opCfg, "computed")
	alt := table1Rep(e, altGolden, altCfg, "computed")
	// Warm-up: twelve untimed quick campaigns (about 0.15 s each). Warm-up
	// outputs are not judged: a mismatch shows again in the timed reps,
	// where it counts as a failed operation.
	for i := 0; i < 12; i++ {
		_ = alt(nil, -1)
	}
	return []benchCase{
		{name: "op", reps: 2, floor: 2, tracedReps: 1, run: op},
		{name: "alt", reps: 40, floor: 8, tracedReps: 12, run: alt},
	}, nil
}

func table1Warm(e *env) ([]benchCase, error) {
	cfg, golden := paperTable1(), "paper"
	if e.short {
		cfg, golden = quick20Table1(), "quick20"
	}
	cacheDir, storeDir := filepath.Join(e.tmp, "cache"), filepath.Join(e.tmp, "store")

	// Set-up is the first run of the CLI: one cold campaign that writes
	// both disk tiers (cost-table JSON and captured skeletons).
	populate := cfg
	populate.CacheDir = cacheDir
	populate.Replay = &mapping.ReplayOptions{Store: skeleton.NewStore(storeDir)}
	_ = table1Rep(e, golden, populate, "computed")(nil, -1) // judged through op and alt: a failed populate makes them miss

	// op: memo cold, cost tables read back from the disk JSON cache.
	opCfg := cfg
	opCfg.CacheDir = cacheDir
	op := table1Rep(e, golden, opCfg, "disk")
	// alt: memo cold, no table cache; a fresh store handle has an empty
	// memory tier, so every cell is a disk Decode plus a Recost.
	alt := func(rec *recorder, parent int) error {
		altCfg := cfg
		altCfg.Replay = &mapping.ReplayOptions{Store: skeleton.NewStore(storeDir)}
		return table1Rep(e, golden, altCfg, "computed")(rec, parent)
	}
	_, _ = op(nil, -1), alt(nil, -1) // warm-up, not judged
	return []benchCase{
		{name: "op", reps: 6, floor: 4, tracedReps: 2, run: op},
		{name: "alt", reps: 3, floor: 2, tracedReps: 1, run: alt},
	}, nil
}

// rowSpec is one Table 1 row expressed through the public calls
// experiments.Table1 makes for it, so the traced run can put a span around
// each: <app>.MeasuredModel, <app>.Run (data parallel), mapping.Optimize,
// <app>.Run (chosen mapping).
type rowSpec struct {
	label      string // span suffix: ffthist_a, ffthist_b, radar, stereo
	name, size string
	goalRatio  float64
	model      func(mapping.BuildOptions) (mapping.Model, mapping.TableSource, error)
	runDP      func(*machine.Machine) (thr, lat float64)
	runChoice  func(*machine.Machine, mapping.Choice) (thr, lat float64)
}

// table1Rows mirrors the row definitions of experiments.Table1 (sizes and
// the paper's goal ratios); the goldens pin that the mirror stays exact.
func table1Rows(cfg experiments.Table1Config, cost sim.CostModel) []rowSpec {
	// The FFT-Hist goal ratios are divided at run time, as experiments.Table1
	// does; the constant expression 8/3.90 rounds one ulp differently.
	ffthistRow := func(label string, n int, paperGoal, paperDP float64) rowSpec {
		app := ffthist.Config{N: n, Sets: cfg.Sets, Bins: 64}
		return rowSpec{
			label: label, name: "FFT-Hist", size: fmt.Sprintf("%dx%d", n, n), goalRatio: paperGoal / paperDP,
			model: func(o mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
				return ffthist.MeasuredModel(cost, app, cfg.Procs, o)
			},
			runDP: func(m *machine.Machine) (float64, float64) {
				r := ffthist.Run(m, app, ffthist.DataParallel(min(cfg.Procs, n)))
				return r.Stream.Throughput, r.Stream.Latency
			},
			runChoice: func(m *machine.Machine, c mapping.Choice) (float64, float64) {
				r := ffthist.Run(m, app, ffthist.ChoiceToMapping(c))
				return r.Stream.Throughput, r.Stream.Latency
			},
		}
	}
	n1, n2 := 256, 512
	rad, ste := radar.DefaultConfig(), stereo.DefaultConfig()
	if cfg.Quick {
		n1, n2 = 32, 64
		rad = radar.Config{Gates: 64, Rows: 8, Scale: 1.0 / 64, Threshold: 0.05}
		ste = stereo.Config{W: 64, H: 24, Disparities: 8, Window: 2}
	}
	rad.Sets, ste.Sets = cfg.Sets, cfg.Sets
	return []rowSpec{
		ffthistRow("ffthist_a", n1, 8, 3.90),
		ffthistRow("ffthist_b", n2, 2, 1.99),
		{
			label: "radar", name: "Radar", size: fmt.Sprintf("%dx%d", rad.Gates, rad.Rows), goalRatio: 50.0 / 23.4,
			model: func(o mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
				return radar.MeasuredModel(cost, rad, cfg.Procs, o)
			},
			runDP: func(m *machine.Machine) (float64, float64) {
				r := radar.Run(m, rad, radar.DataParallel(min(cfg.Procs, rad.Rows)))
				return r.Stream.Throughput, r.Stream.Latency
			},
			runChoice: func(m *machine.Machine, c mapping.Choice) (float64, float64) {
				r := radar.Run(m, rad, radar.ChoiceToMapping(c))
				return r.Stream.Throughput, r.Stream.Latency
			},
		},
		{
			label: "stereo", name: "Stereo", size: fmt.Sprintf("%dx%d", ste.W, ste.H), goalRatio: 10.0 / 3.64,
			model: func(o mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
				return stereo.MeasuredModel(cost, ste, cfg.Procs, o)
			},
			runDP: func(m *machine.Machine) (float64, float64) {
				r := stereo.Run(m, ste, stereo.DataParallel(min(cfg.Procs, ste.H)))
				return r.Stream.Throughput, r.Stream.Latency
			},
			runChoice: func(m *machine.Machine, c mapping.Choice) (float64, float64) {
				r := stereo.Run(m, ste, stereo.ChoiceToMapping(c))
				return r.Stream.Throughput, r.Stream.Latency
			},
		},
	}
}

// spannedTable1 computes the rows experiments.Table1 computes, one row
// after another (what Workers: 1 does), with a span around every public
// call so rows and layers separate in the trace.
func spannedTable1(rec *recorder, parent int, cfg experiments.Table1Config) []experiments.Table1Row {
	cost := sim.Paragon()
	opt := mapping.BuildOptions{Workers: cfg.Workers, CacheDir: cfg.CacheDir, Engine: cfg.Engine, Replay: cfg.Replay}
	rep := rec.repOf(parent)
	call := func(name string, parent int, fn func(id int)) {
		id := rec.begin(name, parent, rep)
		fn(id)
		rec.end(id)
	}
	newMachine := func() *machine.Machine {
		m := machine.New(cfg.Procs, cost)
		m.SetEngine(cfg.Engine)
		return m
	}
	var rows []experiments.Table1Row
	for _, rs := range table1Rows(cfg, cost) {
		row := experiments.Table1Row{Name: rs.name, Size: rs.size, GoalRatio: rs.goalRatio}
		call("table1.row."+rs.label, parent, func(rowSpan int) {
			var model mapping.Model
			var src mapping.TableSource
			var err error
			call("mapping.MeasuredModel."+rs.label, rowSpan, func(int) { model, src, err = rs.model(opt) })
			if err != nil {
				row.Best = "model: " + err.Error()
				return
			}
			row.ModelSource = src.String()
			call("apps.Run."+rs.label, rowSpan, func(int) { row.DPThroughput, row.DPLatency = rs.runDP(newMachine()) })
			row.Goal = row.GoalRatio / model.DPT[cfg.Procs]
			var choice mapping.Choice
			call("mapping.Optimize", rowSpan, func(int) { choice, err = mapping.Optimize(model, row.Goal) })
			if err != nil {
				row.Best = "infeasible: " + err.Error()
				return
			}
			row.Best = choice.String()
			call("apps.Run."+rs.label, rowSpan, func(int) { row.TaskThroughput, row.TaskLatency = rs.runChoice(newMachine(), choice) })
		})
		rows = append(rows, row)
	}
	return rows
}
