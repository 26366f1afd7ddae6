package radar

import (
	"testing"

	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

// TestHeterogeneousModulesAgree: modules of different widths must report
// the same detections per data set as the reference.
func TestHeterogeneousModulesAgree(t *testing.T) {
	cfg := smallConfig()
	ref := run(t, 1, cfg, mapping.DataParallel(1))
	mp := mapping.Mapping{Modules: 2, Stages: []int{2}, WideModules: 1, WideStages: []int{3}}
	res := run(t, 5, cfg, mp)
	if res.Stream.Sets != cfg.Sets {
		t.Fatalf("%v: completed %d of %d sets", mp, res.Stream.Sets, cfg.Sets)
	}
	for set := 0; set < cfg.Sets; set++ {
		if res.Kept[set] != ref.Kept[set] {
			t.Errorf("set %d: kept %d, reference %d", set, res.Kept[set], ref.Kept[set])
		}
	}
}

// TestMeasuredModelFeasible: the measured radar model validates, stays
// positive, respects the row cap structure, and supports optimization.
func TestMeasuredModelFeasible(t *testing.T) {
	cfg := smallConfig()
	cost := sim.Paragon()
	const maxP = 12
	mapping.ResetTableMemo()
	m, _, err := MeasuredModel(cost, cfg, maxP, mapping.BuildOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	closed := BuildModel(cost, cfg, maxP)
	for s := range m.StageT {
		for p := 1; p <= maxP; p++ {
			if m.StageT[s][p] <= 0 {
				t.Fatalf("StageT[%d][%d] = %g", s, p, m.StageT[s][p])
			}
			if r := m.StageT[s][p] / closed.StageT[s][p]; r < 0.4 || r > 2.5 {
				t.Errorf("stage %d p=%d: measured %.6f vs closed %.6f (ratio %.2f)",
					s, p, m.StageT[s][p], closed.StageT[s][p], r)
			}
		}
		// Beyond the row cap the tables must flatten, like the closed form.
		if m.StageT[s][maxP] > m.StageT[s][cfg.Rows]*1.0001 && s > 0 {
			t.Errorf("stage %d grows past the row cap: %g vs %g", s, m.StageT[s][maxP], m.StageT[s][cfg.Rows])
		}
	}
	if _, err := mapping.Optimize(m, 0); err != nil {
		t.Fatal(err)
	}
}
