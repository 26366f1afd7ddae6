package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"

	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// oracleInPlace is the unplanned radix-2 FFT InPlace replaced: bit reversal
// and twiddles recomputed on every call. The planned kernel must match it
// bit for bit.
func oracleInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := sign * 2 * math.Pi / float64(size)
		wbase := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wbase
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestInPlaceMatchesOracle: the planned FFT is bit-identical to the
// unplanned one at every power of two up to 4096, both directions, on
// random inputs, including signed zeros.
func TestInPlaceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 4096; n *= 2 {
		for _, inverse := range []bool{false, true} {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			x[0] = complex(math.Copysign(0, -1), 0)
			want := append([]complex128(nil), x...)
			oracleInPlace(want, inverse)
			InPlace(x, inverse)
			for i := range x {
				if !sameBits(x[i], want[i]) {
					t.Fatalf("n=%d inverse=%v: element %d = %v, oracle %v", n, inverse, i, x[i], want[i])
				}
			}
		}
	}
}

// TestRowsMatchesOracle: every row Rows transforms matches the oracle.
func TestRowsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const w, rows = 256, 5
	data := make([]complex128, w*rows)
	for i := range data {
		data[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	want := append([]complex128(nil), data...)
	for r := 0; r < rows; r++ {
		oracleInPlace(want[r*w:(r+1)*w], false)
	}
	Rows(data, w)
	for i := range data {
		if !sameBits(data[i], want[i]) {
			t.Fatalf("element %d = %v, oracle %v", i, data[i], want[i])
		}
	}
}

// BenchmarkInPlace256 times one forward row of the paper's FFT-Hist size.
func BenchmarkInPlace256(b *testing.B) {
	x := make([]complex128, 256)
	for i := range x {
		x[i] = complex(float64(i%7), float64(i%5))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		InPlace(x, i&1 == 1)
	}
}

// BenchmarkOracleInPlace256 is BenchmarkInPlace256 on the unplanned kernel.
func BenchmarkOracleInPlace256(b *testing.B) {
	x := make([]complex128, 256)
	for i := range x {
		x[i] = complex(float64(i%7), float64(i%5))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oracleInPlace(x, i&1 == 1)
	}
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
