package radar

import (
	"math"
	"testing"

	"fxpar/internal/fft"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

// closedModel is the model-validation oracle: the radar cost model on maxP
// processors with closed-form stage and data-parallel tables over the
// constants the simulator charges, and the rest from the stage table. The
// compute stages stop scaling at cfg.Rows processors — the limit "because
// of the structure of parallelization" that kept the paper's data-parallel
// radar from using all 64 nodes.
func closedModel(cost sim.CostModel, cfg Config, maxP int) mapping.Model {
	elems := cfg.Gates * cfg.Rows
	bytes := float64(elems * 16)
	input := func(p int) float64 {
		t := cost.IOTime(elems * 16)
		if p > 1 {
			t += float64(p-1)*cost.SendOverhead + cost.Alpha + bytes/float64(p)*cost.Beta
		}
		return t
	}
	fftT := func(p int) float64 {
		return math.Ceil(float64(cfg.Rows)/float64(p)) * fft.Flops(cfg.Gates) / cost.FlopRate
	}
	scaleT := func(p int) float64 {
		return float64(elems) / float64(p) * fft.ScaleFlops / cost.FlopRate
	}
	thrT := func(p int) float64 {
		t := float64(elems) / float64(p) * fft.ThresholdFlops / cost.FlopRate
		if p > 1 {
			t += math.Ceil(math.Log2(float64(p))) * (cost.SendOverhead + cost.Alpha)
		}
		return t + cost.IOTime(64)
	}
	m := program(cfg).Model(cost, maxP)
	m.StageT = make([][]float64, 4)
	for s := range m.StageT {
		m.StageT[s] = make([]float64, maxP+1)
	}
	m.DPT = make([]float64, maxP+1)
	for p := 1; p <= maxP; p++ {
		pd := min(p, cfg.Rows)
		m.StageT[0][p] = input(p)
		m.StageT[1][p] = fftT(pd)
		m.StageT[2][p] = scaleT(pd)
		m.StageT[3][p] = thrT(pd)
		m.DPT[p] = input(pd) + m.Xfer(0, pd, pd) + fftT(pd) + m.Xfer(1, pd, pd) + scaleT(pd) + thrT(pd)
	}
	return m
}

func TestBuildModelCaps(t *testing.T) {
	cfg := DefaultConfig()
	m := closedModel(sim.Paragon(), cfg, 64)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The FFT stage time must stop improving past the row cap: more
	// processors than rows cannot speed up row-parallel work.
	if m.StageT[1][cfg.Rows] != m.StageT[1][64] {
		t.Errorf("fft stage keeps scaling past the row cap: %g vs %g",
			m.StageT[1][cfg.Rows], m.StageT[1][64])
	}
	if m.Caps[1] != cfg.Rows {
		t.Errorf("fft cap = %d, want %d", m.Caps[1], cfg.Rows)
	}
	// The input stage is dominated by serial I/O: nearly flat in p.
	if m.StageT[0][64] < m.StageT[0][1]*0.5 {
		t.Errorf("input stage scaled too well: %g -> %g", m.StageT[0][1], m.StageT[0][64])
	}
}

func TestModelPrefersReplicationWithIdleProcs(t *testing.T) {
	// With 64 processors but only 40 usable by data parallelism, a
	// throughput goal above the DP rate must yield a multi-module (or
	// pipeline) choice using more than 40 processors total.
	cfg := DefaultConfig()
	m := closedModel(sim.Paragon(), cfg, 64)
	dpThr := 1 / m.DPT[64]
	c, err := mapping.Optimize(m, 2*dpThr)
	if err != nil {
		t.Fatal(err)
	}
	if c.Modules == 1 && len(c.Stages) == 1 {
		t.Errorf("goal 2x DP chose plain data parallelism: %v", c)
	}
	if c.PredThroughput < 2*dpThr {
		t.Errorf("choice %v misses the goal", c)
	}
}
