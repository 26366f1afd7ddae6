package stereo

import (
	"math"
	"testing"

	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

// closedModel is the model-validation oracle: the stereo cost model on maxP
// processors with closed-form stage and data-parallel tables over the
// constants the simulator charges, and the rest from the stage table.
func closedModel(cost sim.CostModel, cfg Config, maxP int) mapping.Model {
	pixels := cfg.H * cfg.W
	imgBytes := float64(3 * pixels * 8)
	rowsPer := func(p int) float64 { return math.Ceil(float64(cfg.H) / float64(p)) }
	share := func(p int) float64 { return rowsPer(p) * float64(cfg.W) * float64(cfg.Disparities) }
	diff := func(p int) float64 {
		t := cost.IOTime(3 * pixels * 8) // serial camera read on rank 0
		if p > 1 {
			t += 3 * (float64(p-1)*cost.SendOverhead + cost.Alpha + imgBytes/3/float64(p)*cost.Beta)
		}
		return t + share(p)*DiffFlops*2/cost.FlopRate
	}
	errT := func(p int) float64 {
		t := share(p) * ErrorFlops / cost.FlopRate
		if p > 1 {
			// Two halo exchanges with neighbours.
			t += 2 * (cost.SendOverhead + cost.Alpha + float64(cfg.Disparities*cfg.Window*cfg.W*8)*cost.Beta)
		}
		return t
	}
	depth := func(p int) float64 {
		t := share(p) * DepthFlops / cost.FlopRate
		if p > 1 {
			t += math.Ceil(math.Log2(float64(p))) * (cost.SendOverhead + cost.Alpha)
		}
		return t + cost.IOTime(pixels*4)
	}
	m := program(cfg).Model(cost, maxP)
	m.StageT = [][]float64{make([]float64, maxP+1), make([]float64, maxP+1), make([]float64, maxP+1)}
	m.DPT = make([]float64, maxP+1)
	for p := 1; p <= maxP; p++ {
		pd, pe := min(p, cfg.H), min(p, cfg.ErrorCap())
		m.StageT[0][p] = diff(pd)
		m.StageT[1][p] = errT(pe)
		m.StageT[2][p] = depth(pd)
		m.DPT[p] = diff(pe) + errT(pe) + depth(pe)
	}
	return m
}

func TestBuildModelShapes(t *testing.T) {
	cfg := DefaultConfig()
	m := closedModel(sim.Paragon(), cfg, 64)
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
	m := closedModel(sim.Paragon(), cfg, 64)
	goal := (10.0 / 3.64) / m.DPT[64] // the paper's Table 1 ratio
	c, err := mapping.Optimize(m, goal)
	if err != nil {
		t.Fatalf("paper's stereo goal infeasible: %v", err)
	}
	if c.Modules == 1 && len(c.Stages) == 1 {
		t.Errorf("2.75x DP goal met by plain data parallelism: %v", c)
	}
}
