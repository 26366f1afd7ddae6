package stereo

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fxpar/internal/dist"
	"fxpar/internal/fx"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// windowSumMismatch runs one data set's diff stage on procs processors, then
// the error stage and its oracle on copies of the same volume, and describes
// the first element whose bits differ ("" when all agree). The staged match
// images are checked against oracleMatchPixel on the way.
func windowSumMismatch(cfg Config, procs, set int) string {
	var mu sync.Mutex
	var bad string
	report := func(format string, args ...any) {
		mu.Lock()
		if bad == "" {
			bad = fmt.Sprintf(format, args...)
		}
		mu.Unlock()
	}
	fx.Run(machine.New(procs, sim.Paragon()), func(p *fx.Proc) {
		g := p.Group()
		vol, want := dist.New[float64](p.Proc, volume(g, cfg)), dist.New[float64](p.Proc, volume(g, cfg))
		in := newFrames(p, g, cfg)
		diffStage(p, vol, in, cfg, set)
		if in.fRef != nil {
			for i := 0; i < cfg.H; i++ {
				for j := 0; j < cfg.W; j++ {
					if in.fM1[i*cfg.W+j] != oracleMatchPixel(set, 1, i, j, cfg.Disparities) ||
						in.fM2[i*cfg.W+j] != oracleMatchPixel(set, 2, i, j, cfg.Disparities) {
						report("match pixel (%d,%d) differs from the oracle", i, j)
					}
				}
			}
		}
		copy(want.Local(), vol.Local())
		errorStage(p, vol, cfg)
		oracleErrorStage(p, want, cfg)
		for k, v := range vol.Local() {
			if math.Float64bits(v) != math.Float64bits(want.Local()[k]) {
				report("rank %d local %d: %v, oracle %v", vol.Rank(), k, v, want.Local()[k])
				return
			}
		}
	})
	return bad
}

// windowCase derives a stereo Config and processor count from fuzz or
// random inputs: W, H in [1, 64], Window 0-3, Disparities 1-8, and P up to
// H+4 — wide enough to leave trailing ranks empty — narrowed to the widest
// error stage the halo exchange allows.
func windowCase(w, h, win, disp, procs uint8) (Config, int) {
	cfg := Config{W: int(w)%64 + 1, H: int(h)%64 + 1, Window: int(win) % 4, Disparities: int(disp)%8 + 1, Sets: 1}
	p := int(procs)%(cfg.H+4) + 1
	if rows := (cfg.H + p - 1) / p; rows < min(cfg.Window, cfg.H) {
		p = cfg.ErrorCap()
	}
	return cfg, p
}

// TestErrorStageMatchesOracle compares the running-sum error stage with the
// term-by-term one bit for bit on generated configurations, and on the
// paper's and the quick sizes.
func TestErrorStageMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		cfg   Config
		procs int
	}{
		{DefaultConfig(), 8},
		{Config{W: 64, H: 24, Disparities: 8, Window: 2}, 16},
		{Config{W: 64, H: 24, Disparities: 8, Window: 2}, 23}, // 2-row blocks, empty trailing ranks
		{Config{W: 5, H: 3, Disparities: 3, Window: 3}, 1},    // window wider than the image
	} {
		if bad := windowSumMismatch(tc.cfg, tc.procs, 1); bad != "" {
			t.Errorf("%+v on %d: %s", tc.cfg, tc.procs, bad)
		}
	}
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 200; i++ {
		b := func() uint8 { return uint8(rng.Intn(256)) }
		cfg, procs := windowCase(b(), b(), b(), b(), b())
		if bad := windowSumMismatch(cfg, procs, i); bad != "" {
			t.Fatalf("%+v on %d: %s", cfg, procs, bad)
		}
	}
}

// FuzzWindowSum is TestErrorStageMatchesOracle's generated half under the
// fuzzer.
func FuzzWindowSum(f *testing.F) {
	f.Add(uint8(63), uint8(23), uint8(2), uint8(7), uint8(22), uint8(0))
	f.Add(uint8(4), uint8(2), uint8(3), uint8(0), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, w, h, win, disp, procs, set uint8) {
		cfg, p := windowCase(w, h, win, disp, procs)
		if bad := windowSumMismatch(cfg, p, int(set)); bad != "" {
			t.Fatalf("%+v on %d: %s", cfg, p, bad)
		}
	})
}

// oracleMatchPixel is the per-pixel generator of match image m diffStage
// replaced by copies out of the reference frame: the reference shifted by
// the scene disparity, edge-replicated.
func oracleMatchPixel(s, m, i, j, disparities int) float64 {
	d := scene(s, i, j, disparities)
	jj := j - d*m
	if jj < 0 {
		jj = 0
	}
	return refPixel(s, i, jj)
}

// oracleErrorStage is the error stage the running-sum kernel replaced:
// every window summed term by term, the vertical pass into a full-size
// output buffer. errorStage must match it bit for bit.
func oracleErrorStage(p *fx.Proc, vol *dist.Array[float64], cfg Config) {
	if !vol.IsMember() {
		return
	}
	g := vol.Layout().Group()
	w := cfg.W
	win := cfg.Window
	localRows := 0
	for y := 0; y < cfg.H; y++ {
		if vol.Layout().OwnerRank(0, y, 0) == vol.Rank() {
			localRows++
		}
	}
	local := vol.Local()
	rank := vol.Rank()
	// BLOCK distribution can leave trailing ranks empty (ceil division);
	// the non-empty ranks form a contiguous prefix that carries the halo
	// protocol. Empty ranks skip the stage entirely.
	size := 0
	for r := 0; r < g.Size(); r++ {
		if vol.Layout().LocalCount(r) > 0 {
			size++
		}
	}
	if localRows == 0 {
		return
	}
	if rank < size-1 && localRows < win {
		panic(fmt.Sprintf("stereo: interior rank %d holds %d rows < window %d; halo exchange would span several processors", rank, localRows, win))
	}

	// Horizontal pass (in place via temp row).
	tmp := make([]float64, w)
	for d := 0; d < cfg.Disparities; d++ {
		for li := 0; li < localRows; li++ {
			row := local[(d*localRows+li)*w : (d*localRows+li+1)*w]
			for j := 0; j < w; j++ {
				s := 0.0
				for k := -win; k <= win; k++ {
					jj := j + k
					if jj < 0 {
						jj = 0
					} else if jj >= w {
						jj = w - 1
					}
					s += row[jj]
				}
				tmp[j] = s
			}
			copy(row, tmp)
		}
	}

	// Halo exchange: send my top win rows down to rank-1 and bottom win rows
	// up to rank+1 (all disparities), then receive the neighbours' halos.
	rowBytes := w * 8
	packRows := func(fromTop bool) []float64 {
		buf := make([]float64, 0, cfg.Disparities*win*w)
		for d := 0; d < cfg.Disparities; d++ {
			for k := 0; k < win; k++ {
				li := k
				if !fromTop {
					li = localRows - win + k
				}
				if li < 0 || li >= localRows {
					li = clamp(li, 0, localRows-1)
				}
				buf = append(buf, local[(d*localRows+li)*w:(d*localRows+li+1)*w]...)
			}
		}
		return buf
	}
	var above, below []float64
	if win > 0 && size > 1 {
		if rank > 0 {
			p.Send(g.Phys(rank-1), packRows(true), cfg.Disparities*win*rowBytes)
		}
		if rank < size-1 {
			p.Send(g.Phys(rank+1), packRows(false), cfg.Disparities*win*rowBytes)
		}
		if rank > 0 {
			above = p.Recv(g.Phys(rank - 1)).Data.([]float64)
		}
		if rank < size-1 {
			below = p.Recv(g.Phys(rank + 1)).Data.([]float64)
		}
	}
	haloRow := func(buf []float64, d, k int) []float64 {
		off := (d*win + k) * w
		return buf[off : off+w]
	}

	// Vertical pass.
	out := make([]float64, len(local))
	for d := 0; d < cfg.Disparities; d++ {
		for li := 0; li < localRows; li++ {
			dst := out[(d*localRows+li)*w : (d*localRows+li+1)*w]
			for j := 0; j < w; j++ {
				dst[j] = 0
			}
			for k := -win; k <= win; k++ {
				gi := li + k
				var src []float64
				switch {
				case gi >= 0 && gi < localRows:
					src = local[(d*localRows+gi)*w : (d*localRows+gi+1)*w]
				case gi < 0 && above != nil:
					src = haloRow(above, d, win+gi) // gi in [-win,-1] -> [0,win)
				case gi >= localRows && below != nil:
					src = haloRow(below, d, gi-localRows)
				case gi < 0: // global top edge: replicate
					src = local[(d*localRows)*w : (d*localRows+1)*w]
				default: // global bottom edge: replicate
					src = local[(d*localRows+localRows-1)*w : (d*localRows+localRows)*w]
				}
				for j := 0; j < w; j++ {
					dst[j] += src[j]
				}
			}
		}
	}
	copy(local, out)
	p.Compute(float64(cfg.Disparities*localRows*w) * ErrorFlops)
}

// benchmarkErrorStage times one paper-size error stage on four processors,
// each iteration on a fresh copy of set 0's difference volume.
func benchmarkErrorStage(b *testing.B, stage func(*fx.Proc, *dist.Array[float64], Config)) {
	cfg := DefaultConfig()
	fx.Run(machine.New(4, sim.Paragon()), func(p *fx.Proc) {
		g := p.Group()
		vol, work := dist.New[float64](p.Proc, volume(g, cfg)), dist.New[float64](p.Proc, volume(g, cfg))
		diffStage(p, vol, newFrames(p, g, cfg), cfg, 0)
		if vol.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			copy(work.Local(), vol.Local())
			stage(p, work, cfg)
		}
	})
}

func BenchmarkErrorStage(b *testing.B)       { benchmarkErrorStage(b, errorStage) }
func BenchmarkOracleErrorStage(b *testing.B) { benchmarkErrorStage(b, oracleErrorStage) }
