package stereo

import (
	"testing"

	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

// TestHeterogeneousModulesAgree: modules of different widths must produce
// the same depth checksums as the reference mapping.
func TestHeterogeneousModulesAgree(t *testing.T) {
	cfg := smallConfig()
	ref := run(t, 4, cfg, mapping.DataParallel(4))
	mp := mapping.Mapping{Modules: 2, Stages: []int{3}, WideModules: 1, WideStages: []int{4}}
	res := run(t, 7, cfg, mp)
	if res.Stream.Sets != cfg.Sets {
		t.Fatalf("%v: completed %d of %d sets", mp, res.Stream.Sets, cfg.Sets)
	}
	for set := 0; set < cfg.Sets; set++ {
		if res.DepthSum[set] != ref.DepthSum[set] {
			t.Errorf("set %d: depth sum %d, reference %d", set, res.DepthSum[set], ref.DepthSum[set])
		}
	}
}

// TestMeasuredModelFeasible: the measured stereo model validates and
// supports optimization; entries stay positive.
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
}
