package radar

import (
	"testing"

	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

func TestBuildModelCaps(t *testing.T) {
	cfg := DefaultConfig()
	m := BuildModel(sim.Paragon(), cfg, 64)
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
	m := BuildModel(sim.Paragon(), cfg, 64)
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
