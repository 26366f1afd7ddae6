package radar

import (
	"testing"

	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

// TestHeterogeneousModulesAgree: modules of different widths must report
// the same detections per data set as the reference.
func TestHeterogeneousModulesAgree(t *testing.T) {
	cfg := smallConfig()
	agree(t, cfg, run(t, 1, cfg, mapping.DataParallel(1)), []runCase{{5, mapping.Mapping{Modules: 2, Stages: []int{2}, WideModules: 1, WideStages: []int{3}}}})
}

// TestMeasuredModelFeasible: the measured radar model validates, stays
// positive, tracks the closed-form oracle, respects the row cap structure,
// and supports optimization. The oracle's data-parallel time stays within a
// factor 2 of a simulated stream's per-set latency.
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
	closed := closedModel(cost, cfg, maxP)
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
	stream := Config{Gates: 128, Rows: 16, Sets: 6, Scale: 1.0 / 128, Threshold: 0.05}
	oracle := closedModel(cost, stream, 16)
	for _, p := range []int{1, 4, 16} {
		lat := Run(machine.New(p, cost), stream, mapping.DataParallel(p)).Stream.Latency
		if r := oracle.DPT[p] / lat; r < 0.5 || r > 2 {
			t.Errorf("Gates=128 DPT p=%d: closed %.6f vs simulated latency %.6f (ratio %.2f)", p, oracle.DPT[p], lat, r)
		}
	}
}
