package ffthist

import (
	"math"

	"fxpar/internal/fft"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

// stageNames are the pipeline stages in order; shared (read-only) by every
// model and table spec of the program.
var stageNames = []string{"cffts", "rffts", "hist"}

// BuildModel constructs the mapper's cost model for FFT-Hist on a machine of
// maxP processors with the given cost model. The tables are closed forms
// over the same constants the simulator charges (flop counts, alpha/beta,
// I/O rate), so the mapper's ranking agrees with simulation; the harnesses
// still simulate the chosen mapping to report measured numbers.
func BuildModel(cost sim.CostModel, cfg Config, maxP int) mapping.Model {
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
	xferBytes := func(a, b int) float64 {
		// a senders each split their 1/a share into b messages.
		return float64(b)*cost.SendOverhead + cost.Alpha + bytes/float64(a*b)*cost.Beta
	}

	m := mapping.Model{
		P:          maxP,
		StageNames: stageNames,
		StageT:     make([][]float64, 3),
		DPT:        make([]float64, maxP+1),
		Caps:       []int{n, n, n},
		Xfer: func(s, a, b int) float64 {
			return xferBytes(a, b)
		},
	}
	for s := range m.StageT {
		m.StageT[s] = make([]float64, maxP+1)
	}
	for p := 1; p <= maxP; p++ {
		m.StageT[0][p] = input(p) + fftStage(p)
		m.StageT[1][p] = fftStage(p)
		m.StageT[2][p] = hist(p)
		pd := p
		if pd > n {
			pd = n
		}
		m.DPT[p] = m.StageT[0][pd] + xferBytes(pd, pd) + m.StageT[1][pd] + m.StageT[2][pd]
	}
	return m
}
