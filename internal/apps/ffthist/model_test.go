package ffthist

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
	m := BuildModel(sim.Paragon(), cfg, 12)
	// Latency-only: must be a valid runnable mapping.
	c, err := mapping.Optimize(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	mp := c.Mapping
	if err := mp.Validate(12, len(stageNames)); err != nil {
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
