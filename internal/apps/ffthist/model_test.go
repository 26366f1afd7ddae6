package ffthist

import (
	"math"
	"testing"

	"fxpar/internal/fft"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

// closedModel is the model-validation oracle: FFT-Hist's cost model on
// maxP processors with closed-form stage and data-parallel tables over the
// constants the simulator charges (flop counts, alpha/beta, I/O rate), and
// the rest from the stage table. The measured tables must track it.
func closedModel(cost sim.CostModel, cfg Config, maxP int) mapping.Model {
	n := cfg.N
	bytes := float64(n * n * 16)
	rowsPer := func(p int) float64 { return math.Ceil(float64(n) / float64(p)) }
	fftStage := func(p int) float64 { return rowsPer(p) * fft.Flops(n) / cost.FlopRate }
	input := func(p int) float64 {
		t := cost.IOTime(n * n * 16) // serial sensor read on the stage's rank 0
		if p > 1 {
			// Scatter from rank 0: p-1 injections, then the last message's
			// wire time.
			t += float64(p-1)*cost.SendOverhead + cost.Alpha + bytes/float64(p)*cost.Beta
		}
		return t
	}
	hist := func(p int) float64 {
		t := float64(n*n) / float64(p) * fft.HistFlops / cost.FlopRate
		if p > 1 {
			t += math.Ceil(math.Log2(float64(p))) * (cost.SendOverhead + cost.Alpha)
		}
		return t + cost.IOTime(cfg.Bins*8)
	}
	m := program(cfg).Model(cost, maxP)
	m.StageT = [][]float64{make([]float64, maxP+1), make([]float64, maxP+1), make([]float64, maxP+1)}
	m.DPT = make([]float64, maxP+1)
	for p := 1; p <= maxP; p++ {
		m.StageT[0][p] = input(p) + fftStage(p)
		m.StageT[1][p] = fftStage(p)
		m.StageT[2][p] = hist(p)
		pd := min(p, n)
		m.DPT[p] = m.StageT[0][pd] + m.Xfer(0, pd, pd) + m.StageT[1][pd] + m.StageT[2][pd]
	}
	return m
}

func TestBuildModelShapes(t *testing.T) {
	cfg := DefaultConfig()
	m := closedModel(sim.Paragon(), cfg, 64)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Stage times must decrease (weakly) with processors until the cap.
	for s := range m.StageT {
		for p := 2; p <= 64; p++ {
			// Allow the fixed terms (I/O, scatter, reduce) to flatten the
			// curve, but never let compute time grow with processors by
			// more than the added coordination overhead.
			if m.StageT[s][p] > m.StageT[s][1] {
				t.Errorf("stage %d slower on %d procs (%.5f) than on 1 (%.5f)",
					s, p, m.StageT[s][p], m.StageT[s][1])
			}
		}
	}
	// DP time includes all stages: it must exceed each individual stage.
	for s := range m.StageT {
		if m.DPT[64] < m.StageT[s][64] {
			t.Errorf("DP time %.5f below stage %d time %.5f", m.DPT[64], s, m.StageT[s][64])
		}
	}
}

func TestModelOptimizeAndRun(t *testing.T) {
	cfg := Config{N: 32, Sets: 6, Bins: 16}
	m := closedModel(sim.Paragon(), cfg, 12)
	// Latency-only: must be a valid runnable mapping.
	c, err := mapping.Optimize(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	mp := c.Mapping
	if err := mp.Validate(12, cfg.Caps()); err != nil {
		t.Fatalf("invalid mapping %v: %v", mp, err)
	}
	// A tight goal must produce a different mapping with more predicted
	// throughput.
	c2, err := mapping.Optimize(m, 2.5/m.DPT[12])
	if err != nil {
		t.Fatal(err)
	}
	if c2.PredThroughput <= c.PredThroughput {
		t.Errorf("tight goal did not raise predicted throughput: %v vs %v", c2, c)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.N != 256 || cfg.Sets <= 0 || cfg.Bins <= 0 {
		t.Errorf("DefaultConfig = %+v", cfg)
	}
}
