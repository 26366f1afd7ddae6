package ffthist

import (
	"testing"

	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

// TestHeterogeneousModulesAgree: a mapping whose first module is one
// processor wider must still compute identical histograms — the wide module
// just finishes its share faster.
func TestHeterogeneousModulesAgree(t *testing.T) {
	cfg := smallConfig()
	agree(t, cfg, run(t, 4, cfg, mapping.DataParallel(4)), []runCase{
		{7, mapping.Mapping{Modules: 2, Stages: []int{3}, WideModules: 1, WideStages: []int{4}}},
		{9, mapping.Mapping{Modules: 2, Stages: []int{1, 2, 1}, WideModules: 1, WideStages: []int{2, 2, 1}}},
		{10, mapping.Mapping{Modules: 3, Stages: []int{3}, WideModules: 1, WideStages: []int{4}}},
	})
}

// TestMeasuredModelTracksClosedForm: the simulation-measured tables must
// stay within a factor-2 band of the closed-form oracle — same constants,
// same kernels, so a larger drift means one of the two is wrong. The
// oracle's data-parallel time stays in the band of a simulated stream's
// per-set latency too.
func TestMeasuredModelTracksClosedForm(t *testing.T) {
	cfg := Config{N: 16, Sets: 1, Bins: 8}
	const maxP = 8
	cost := sim.Paragon()
	closed := closedModel(cost, cfg, maxP)
	mapping.ResetTableMemo()
	measured, src, err := MeasuredModel(cost, cfg, maxP, mapping.BuildOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if src != mapping.SourceComputed {
		t.Fatalf("first build came from %v", src)
	}
	if err := measured.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := range measured.StageT {
		for p := 1; p <= maxP; p++ {
			got, want := measured.StageT[s][p], closed.StageT[s][p]
			if got <= 0 {
				t.Fatalf("measured StageT[%d][%d] = %g", s, p, got)
			}
			if r := got / want; r < 0.5 || r > 2 {
				t.Errorf("stage %d p=%d: measured %.6f vs closed %.6f (ratio %.2f)", s, p, got, want, r)
			}
		}
	}
	for p := 1; p <= maxP; p++ {
		if r := measured.DPT[p] / closed.DPT[p]; r < 0.5 || r > 2 {
			t.Errorf("DPT p=%d: measured %.6f vs closed %.6f (ratio %.2f)", p, measured.DPT[p], closed.DPT[p], r)
		}
	}

	stream := Config{N: 64, Sets: 6, Bins: 32}
	oracle := closedModel(cost, stream, 16)
	for _, p := range []int{1, 4, 16} {
		lat := Run(machine.New(p, cost), stream, mapping.DataParallel(p)).Stream.Latency
		if r := oracle.DPT[p] / lat; r < 0.5 || r > 2 {
			t.Errorf("N=64 DPT p=%d: closed %.6f vs simulated latency %.6f (ratio %.2f)", p, oracle.DPT[p], lat, r)
		}
	}

	// The optimizer must be able to run on the measured model.
	if _, err := mapping.Optimize(measured, 0); err != nil {
		t.Fatal(err)
	}

	// Rebuilding hits the in-process memo.
	if _, src, err := MeasuredModel(cost, cfg, maxP, mapping.BuildOptions{}); err != nil || src != mapping.SourceMemory {
		t.Errorf("rebuild: src=%v err=%v, want memory hit", src, err)
	}
}

// TestMeasuredModelDiskCache: a fresh process (simulated by clearing the
// memo) must load the tables from CacheDir without simulating.
func TestMeasuredModelDiskCache(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{N: 16, Sets: 1, Bins: 8}
	cost := sim.Paragon()
	mapping.ResetTableMemo()
	if _, src, err := MeasuredModel(cost, cfg, 4, mapping.BuildOptions{CacheDir: dir}); err != nil || src != mapping.SourceComputed {
		t.Fatalf("cold: src=%v err=%v", src, err)
	}
	mapping.ResetTableMemo()
	m, src, err := MeasuredModel(cost, cfg, 4, mapping.BuildOptions{CacheDir: dir})
	if err != nil || src != mapping.SourceDisk {
		t.Fatalf("warm: src=%v err=%v", src, err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
