package ffthist

import (
	"testing"

	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

// TestHeterogeneousModulesAgree: a mapping whose first module is one
// processor wider must still compute identical histograms — the wide module
// just finishes its share faster.
func TestHeterogeneousModulesAgree(t *testing.T) {
	cfg := smallConfig()
	ref := run(t, 4, cfg, mapping.DataParallel(4))
	cases := []struct {
		procs int
		mp    mapping.Mapping
	}{
		{7, mapping.Mapping{Modules: 2, Stages: []int{3}, WideModules: 1, WideStages: []int{4}}},
		{9, mapping.Mapping{Modules: 2, Stages: []int{1, 2, 1}, WideModules: 1, WideStages: []int{2, 2, 1}}},
		{10, mapping.Mapping{Modules: 3, Stages: []int{3}, WideModules: 1, WideStages: []int{4}}},
	}
	for _, tc := range cases {
		res := run(t, tc.procs, cfg, tc.mp)
		if res.Stream.Sets != cfg.Sets {
			t.Errorf("%v: completed %d of %d sets", tc.mp, res.Stream.Sets, cfg.Sets)
			continue
		}
		for set := 0; set < cfg.Sets; set++ {
			want, got := ref.Hists[set], res.Hists[set]
			if len(got) != len(want) {
				t.Errorf("%v set %d: missing histogram", tc.mp, set)
				continue
			}
			for b := range want {
				if got[b] != want[b] {
					t.Errorf("%v set %d bin %d: %d != %d", tc.mp, set, b, got[b], want[b])
					break
				}
			}
		}
	}
}

// TestMeasuredModelTracksClosedForm: the simulation-measured tables must
// stay within a factor-2 band of the closed forms they replace — same
// constants, same kernels, so a larger drift means one of the two is wrong.
func TestMeasuredModelTracksClosedForm(t *testing.T) {
	cfg := Config{N: 16, Sets: 1, Bins: 8}
	const maxP = 8
	cost := sim.Paragon()
	closed := BuildModel(cost, cfg, maxP)
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
