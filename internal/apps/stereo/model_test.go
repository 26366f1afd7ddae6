package stereo

import (
	"testing"

	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

func TestBuildModelShapes(t *testing.T) {
	cfg := DefaultConfig()
	m := BuildModel(sim.Paragon(), cfg, 64)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The diff stage carries the serial camera input; it must dominate the
	// depth stage at every width.
	for p := 1; p <= 64; p *= 2 {
		if m.StageT[0][p] < m.StageT[2][p] {
			t.Errorf("p=%d: diff stage %.5f below depth stage %.5f", p, m.StageT[0][p], m.StageT[2][p])
		}
	}
}

func TestModelFindsTaskMappingForPaperGoalRatio(t *testing.T) {
	cfg := DefaultConfig()
	m := BuildModel(sim.Paragon(), cfg, 64)
	goal := (10.0 / 3.64) / m.DPT[64] // the paper's Table 1 ratio
	c, err := mapping.Optimize(m, goal)
	if err != nil {
		t.Fatalf("paper's stereo goal infeasible: %v", err)
	}
	if c.Modules == 1 && len(c.Stages) == 1 {
		t.Errorf("2.75x DP goal met by plain data parallelism: %v", c)
	}
}
