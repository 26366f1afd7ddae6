package stereo

import (
	"testing"

	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

// TestHeterogeneousModulesAgree: modules of different widths must produce
// the same depth checksums as the reference mapping.
func TestHeterogeneousModulesAgree(t *testing.T) {
	cfg := smallConfig()
	agree(t, cfg, run(t, 4, cfg, mapping.DataParallel(4)), []runCase{{7, mapping.Mapping{Modules: 2, Stages: []int{3}, WideModules: 1, WideStages: []int{4}}}})
}

// TestMeasuredModelFeasible: the measured stereo model validates and
// supports optimization; entries stay positive. The closed-form oracle's
// data-parallel time stays within a factor 2 of a simulated stream's per-set
// latency.
func TestMeasuredModelFeasible(t *testing.T) {
	cfg := smallConfig()
	cost := sim.Paragon()
	const maxP = 8
	mapping.ResetTableMemo()
	m, _, err := MeasuredModel(cost, cfg, maxP, mapping.BuildOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := range m.StageT {
		for p := 1; p <= maxP; p++ {
			if m.StageT[s][p] <= 0 {
				t.Fatalf("StageT[%d][%d] = %g", s, p, m.StageT[s][p])
			}
		}
	}
	if _, err := mapping.Optimize(m, 0); err != nil {
		t.Fatal(err)
	}
	stream := Config{W: 64, H: 32, Disparities: 8, Window: 2, Sets: 6}
	oracle := closedModel(cost, stream, 16)
	for _, p := range []int{1, 4, 16} {
		lat := Run(machine.New(p, cost), stream, mapping.DataParallel(p)).Stream.Latency
		if r := oracle.DPT[p] / lat; r < 0.5 || r > 2 {
			t.Errorf("W=64 H=32 DPT p=%d: closed %.6f vs simulated latency %.6f (ratio %.2f)", p, oracle.DPT[p], lat, r)
		}
	}
}
