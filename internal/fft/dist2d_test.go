package fft

import (
	"math"
	"math/cmplx"
	"testing"

	"fxpar/internal/dist"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// seqDFT2D computes the 2D DFT directly (O(n^4)) for verification.
func seqDFT2D(in []complex128, n int) []complex128 {
	out := make([]complex128, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			var sum complex128
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					phase := -2 * math.Pi * (float64(u*i)/float64(n) + float64(v*j)/float64(n))
					sum += in[i*n+j] * cmplx.Exp(complex(0, phase))
				}
			}
			out[u*n+v] = sum
		}
	}
	return out
}

func distFFTSetup(p *machine.Proc, procs, n int) (dst, src, work *dist.Array[complex128]) {
	g := group.World(procs)
	src = dist.New[complex128](p, dist.RowBlock2D(g, n, n))
	dst = dist.New[complex128](p, dist.RowBlock2D(g, n, n))
	work = dist.New[complex128](p, dist.RowBlock2D(g, n, n))
	return
}

func TestDist2DMatchesDirectDFT(t *testing.T) {
	const n = 8
	for _, procs := range []int{1, 2, 4} {
		m := machine.New(procs, sim.Paragon())
		m.Run(func(p *machine.Proc) {
			dst, src, work := distFFTSetup(p, procs, n)
			src.FillFunc(func(idx []int) complex128 {
				return complex(float64(idx[0]*3+idx[1])/10, float64(idx[0]-idx[1])/7)
			})
			input := make([]complex128, n*n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					input[i*n+j] = complex(float64(i*3+j)/10, float64(i-j)/7)
				}
			}
			want := seqDFT2D(input, n)
			Dist2D(p, dst, src, work, false)
			full := dist.GatherGlobal(p, dst)
			if full != nil {
				for k := range want {
					if cmplx.Abs(full[k]-want[k]) > 1e-9 {
						t.Errorf("procs=%d: element %d = %v, want %v", procs, k, full[k], want[k])
						break
					}
				}
			}
		})
	}
}

func TestDist2DRoundTrip(t *testing.T) {
	const n = 16
	m := machine.New(4, sim.Paragon())
	m.Run(func(p *machine.Proc) {
		dst, src, work := distFFTSetup(p, 4, n)
		inv := dist.New[complex128](p, dist.RowBlock2D(group.World(4), n, n))
		src.FillFunc(func(idx []int) complex128 {
			return complex(math.Sin(float64(idx[0])), math.Cos(float64(idx[1])))
		})
		orig := append([]complex128(nil), src.Local()...)
		Dist2D(p, dst, src, work, false)
		Dist2D(p, inv, dst, work, true)
		for i, v := range inv.Local() {
			if cmplx.Abs(v-orig[i]) > 1e-9 {
				t.Errorf("round trip differs at local %d: %v vs %v", i, v, orig[i])
				break
			}
		}
	})
}

func TestDist2DRejectsBadShapes(t *testing.T) {
	m := machine.New(2, sim.Paragon())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Run(func(p *machine.Proc) {
		g := group.World(2)
		src := dist.New[complex128](p, dist.RowBlock2D(g, 8, 4))
		dst := dist.New[complex128](p, dist.RowBlock2D(g, 8, 4))
		work := dist.New[complex128](p, dist.RowBlock2D(g, 8, 4))
		Dist2D(p, dst, src, work, false)
	})
}

// TestPlanFirstUseConcurrent: processors of the goroutine engine race to
// build the same, not yet cached plans (length 8192 is used by no other
// test); every one of them gets the oracle's bits. Run under -race.
func TestPlanFirstUseConcurrent(t *testing.T) {
	const n, procs = 8192, 8
	in := make([]complex128, n)
	for i := range in {
		in[i] = complex(math.Sin(float64(i)), math.Cos(float64(3*i)))
	}
	want := [2][]complex128{append([]complex128(nil), in...), append([]complex128(nil), in...)}
	oracleInPlace(want[0], false)
	oracleInPlace(want[1], true)
	m := machine.New(procs, sim.Paragon())
	m.SetEngine(machine.Goroutine())
	m.Run(func(p *machine.Proc) {
		inverse := p.ID()%2 == 1
		x := append([]complex128(nil), in...)
		InPlace(x, inverse)
		for i := range x {
			if !sameBits(x[i], want[p.ID()%2][i]) {
				t.Errorf("processor %d (inverse=%v): element %d = %v, oracle %v", p.ID(), inverse, i, x[i], want[p.ID()%2][i])
				return
			}
		}
	})
}
