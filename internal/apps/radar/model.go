package radar

import (
	"math"

	"fxpar/internal/fft"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

// stageNames are the pipeline stages in order; shared (read-only) by every
// model and table spec of the program.
var stageNames = []string{"input", "fft", "scale", "threshold"}

// BuildModel constructs the mapper's cost model for the radar program.
// The compute stages are capped at cfg.Rows processors — the parallelism
// limit "because of the structure of parallelization" that kept the paper's
// data-parallel radar from using all 64 nodes.
func BuildModel(cost sim.CostModel, cfg Config, maxP int) mapping.Model {
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
	xfer := func(a, b int) float64 {
		return float64(b)*cost.SendOverhead + cost.Alpha + bytes/float64(a*b)*cost.Beta
	}

	m := mapping.Model{
		P:          maxP,
		StageNames: stageNames,
		StageT:     make([][]float64, 4),
		DPT:        make([]float64, maxP+1),
		Caps:       []int{cfg.Gates, cfg.Rows, cfg.Rows, cfg.Rows},
		Xfer:       func(s, a, b int) float64 { return xfer(a, b) },
	}
	for s := range m.StageT {
		m.StageT[s] = make([]float64, maxP+1)
	}
	for p := 1; p <= maxP; p++ {
		m.StageT[0][p] = input(p)
		m.StageT[1][p] = fftT(min(p, cfg.Rows))
		m.StageT[2][p] = scaleT(min(p, cfg.Rows))
		m.StageT[3][p] = thrT(min(p, cfg.Rows))
		pd := min(p, cfg.Rows)
		m.DPT[p] = input(pd) + xfer(pd, pd) + fftT(pd) + xfer(pd, pd) + scaleT(pd) + thrT(pd)
	}
	return m
}
