package stereo

import (
	"math"

	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

// stageNames are the pipeline stages in order; shared (read-only) by every
// model and table spec of the program.
var stageNames = []string{"diff", "error", "depth"}

// BuildModel constructs the mapper's cost model for the stereo program.
func BuildModel(cost sim.CostModel, cfg Config, maxP int) mapping.Model {
	pixels := cfg.H * cfg.W
	volElems := cfg.Disparities * pixels
	volBytes := float64(volElems * 8)
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
	xfer := func(a, b int) float64 {
		return float64(b)*cost.SendOverhead + cost.Alpha + volBytes/float64(a*b)*cost.Beta
	}

	errCap := cfg.ErrorCap()
	m := mapping.Model{
		P:          maxP,
		StageNames: stageNames,
		StageT:     make([][]float64, 3),
		DPT:        make([]float64, maxP+1),
		Caps:       []int{cfg.H, errCap, cfg.H},
		Xfer:       func(s, a, b int) float64 { return xfer(a, b) },
	}
	for s := range m.StageT {
		m.StageT[s] = make([]float64, maxP+1)
	}
	for p := 1; p <= maxP; p++ {
		pd, pe := min(p, cfg.H), min(p, errCap)
		m.StageT[0][p] = diff(pd)
		m.StageT[1][p] = errT(pe)
		m.StageT[2][p] = depth(pd)
		m.DPT[p] = diff(pe) + errT(pe) + depth(pe)
	}
	return m
}
