package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func TestForwardKnownValues(t *testing.T) {
	// FFT of a constant signal: all energy in bin 0.
	x := []complex128{1, 1, 1, 1}
	Forward(x)
	if !almostEqual(x[0], 4, 1e-12) {
		t.Errorf("x[0] = %v", x[0])
	}
	for i := 1; i < 4; i++ {
		if !almostEqual(x[i], 0, 1e-12) {
			t.Errorf("x[%d] = %v", i, x[i])
		}
	}
}

func TestForwardImpulse(t *testing.T) {
	// FFT of an impulse is flat.
	x := make([]complex128, 8)
	x[0] = 1
	Forward(x)
	for i, v := range x {
		if !almostEqual(v, 1, 1e-12) {
			t.Errorf("x[%d] = %v", i, v)
		}
	}
}

func TestForwardSingleTone(t *testing.T) {
	// exp(2*pi*i*k0*t/n) concentrates in bin k0.
	n, k0 := 16, 3
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(k0*i)/float64(n)))
	}
	Forward(x)
	for k, v := range x {
		want := complex(0, 0)
		if k == k0 {
			want = complex(float64(n), 0)
		}
		if !almostEqual(v, want, 1e-9) {
			t.Errorf("bin %d = %v, want %v", k, v, want)
		}
	}
}

func TestInverseRoundTripProperty(t *testing.T) {
	f := func(seed int64, lgSeed uint8) bool {
		n := 1 << (lgSeed%8 + 1) // 2..256
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
			orig[i] = x[i]
		}
		Forward(x)
		Inverse(x)
		for i := range x {
			if !almostEqual(x[i], orig[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// sum |x|^2 = (1/n) sum |X|^2.
	f := func(seed int64) bool {
		n := 64
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		var et float64
		for i := range x {
			x[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		Forward(x)
		var ef float64
		for _, v := range x {
			ef += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(et-ef/float64(n)) < 1e-9*et+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 32
		rng := rand.New(rand.NewSource(seed))
		a := make([]complex128, n)
		b := make([]complex128, n)
		s := make([]complex128, n)
		for i := 0; i < n; i++ {
			a[i] = complex(rng.Float64(), rng.Float64())
			b[i] = complex(rng.Float64(), rng.Float64())
			s[i] = a[i] + b[i]
		}
		Forward(a)
		Forward(b)
		Forward(s)
		for i := 0; i < n; i++ {
			if !almostEqual(s[i], a[i]+b[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Forward(make([]complex128, 6))
}

func TestEmptyAndSingle(t *testing.T) {
	Forward(nil) // must not panic
	x := []complex128{5}
	Forward(x)
	if x[0] != 5 {
		t.Errorf("length-1 FFT changed value: %v", x[0])
	}
}

func TestRows(t *testing.T) {
	// Two constant rows of width 4.
	data := []complex128{1, 1, 1, 1, 2, 2, 2, 2}
	flops := Rows(data, 4)
	if !almostEqual(data[0], 4, 1e-12) || !almostEqual(data[4], 8, 1e-12) {
		t.Errorf("row FFTs wrong: %v", data)
	}
	if flops != 2*Flops(4) {
		t.Errorf("flops = %g", flops)
	}
}

func TestRowsBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Rows(make([]complex128, 7), 4)
}

func TestFlops(t *testing.T) {
	if Flops(1) != 0 {
		t.Errorf("Flops(1) = %g", Flops(1))
	}
	if got := Flops(256); got != 5*256*8 {
		t.Errorf("Flops(256) = %g", got)
	}
}

func TestHistogram(t *testing.T) {
	data := []complex128{0, 1, 2, 3, complex(100, 0)}
	counts, flops := Histogram(data, 4, 4)
	// |0|->bin0 |1|->bin1 |2|->bin2 |3|->bin3 |100|->clamped to bin3
	want := []int64{1, 1, 1, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("counts = %v, want %v", counts, want)
		}
	}
	if flops != 5*HistFlops {
		t.Errorf("flops = %g", flops)
	}
}

func TestHistogramTotalProperty(t *testing.T) {
	f := func(seed int64, binsSeed uint8) bool {
		bins := int(binsSeed)%20 + 1
		rng := rand.New(rand.NewSource(seed))
		data := make([]complex128, 200)
		for i := range data {
			data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		counts, _ := Histogram(data, bins, 2.5)
		var total int64
		for _, c := range counts {
			total += c
		}
		return total == int64(len(data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHistogramBadArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Histogram(nil, 0, 1)
}

func TestScale(t *testing.T) {
	data := []complex128{1, complex(2, 2)}
	flops := Scale(data, 0.5)
	if data[0] != 0.5 || data[1] != complex(1, 1) {
		t.Errorf("scaled = %v", data)
	}
	if flops != 2*ScaleFlops {
		t.Errorf("flops = %g", flops)
	}
}

func TestThreshold(t *testing.T) {
	data := []complex128{complex(0.1, 0), complex(5, 0), complex(0, 3)}
	kept, flops := Threshold(data, 1)
	if kept != 2 {
		t.Errorf("kept = %d", kept)
	}
	if data[0] != 0 || data[1] == 0 || data[2] == 0 {
		t.Errorf("thresholded = %v", data)
	}
	if flops != 3*ThresholdFlops {
		t.Errorf("flops = %g", flops)
	}
}

// Forward is InPlace(x, false).
func Forward(x []complex128) { InPlace(x, false) }

// Inverse is InPlace(x, true).
func Inverse(x []complex128) { InPlace(x, true) }
