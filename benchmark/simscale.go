package main

import (
	"fxpar/internal/apps/ffthist"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// The sim-scale shape is the one BENCH_scale.json uses: the machine is
// filled with 64-processor data-parallel FFT-Hist modules, each chewing
// through two 64x64 data sets. Work per processor is constant, so the
// virtual makespan is the same at every P and host time per processor is
// the machine core's own cost.
const (
	scaleModuleProcs   = 64
	scaleSetsPerModule = 2
	scaleN             = 64
	scaleBins          = 64
	simScaleProcs      = 4096
)

func scaleConfig(procs int) (ffthist.Config, ffthist.Mapping) {
	modules := procs / scaleModuleProcs
	cfg := ffthist.Config{N: scaleN, Sets: scaleSetsPerModule * modules, Bins: scaleBins, SketchStats: true}
	return cfg, ffthist.Mapping{Modules: modules, Stages: []int{scaleModuleProcs}}
}

// scaleRun is one untraced simulated run at P, machine.New included. A nil
// engine is the machine package's default.
func scaleRun(rec *recorder, parent int, procs int, eng machine.Engine) float64 {
	cfg, mp := scaleConfig(procs)
	id := rec.begin("machine.New", parent, rec.repOf(parent))
	m := machine.New(procs, sim.Paragon())
	m.SetEngine(eng)
	rec.end(id)
	id = rec.begin("apps.Run.ffthist_scale", parent, rec.repOf(parent))
	res := ffthist.Run(m, cfg, mp)
	rec.end(id)
	return res.Makespan
}

func simScale(e *env) ([]benchCase, error) {
	procs := simScaleProcs
	if e.short {
		procs = 256
	}
	coop, err := machine.EngineByName("coop")
	if err != nil {
		return nil, err
	}
	rep := func(golden string, eng machine.Engine) func(*recorder, int) error {
		return func(rec *recorder, parent int) error {
			return e.gold.checkSimScale(golden, scaleRun(rec, parent, procs, eng))
		}
	}
	op, alt := rep(machine.DefaultEngineName(), nil), rep("coop", coop)
	// Warm-up: both engines, untimed and not judged (about 2.3 s at P=4096).
	_, _, _ = op(nil, -1), alt(nil, -1), op(nil, -1)
	return []benchCase{
		{name: "op", reps: 12, floor: 8, tracedReps: 4, run: op},
		{name: "alt", reps: 12, floor: 8, tracedReps: 4, run: alt},
	}, nil
}
