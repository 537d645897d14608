package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is flat ones.
	x := make([]complex128, 16)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A complex exponential at bin k concentrates all energy in bin k.
	const n, k = 64, 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*k*float64(i)/n)
	}
	FFT(x)
	for i, v := range x {
		mag := cmplx.Abs(v)
		if i == k {
			if math.Abs(mag-n) > 1e-9 {
				t.Errorf("bin %d magnitude = %g, want %d", i, mag, n)
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d magnitude = %g, want 0", i, mag)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := NewRand(1, 2)
	for _, n := range []int{1, 2, 8, 64, 256} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		// The inverse transform through the forward one:
		// IFFT(X) = conj(FFT(conj(X))) / N.
		FFT(x)
		for i := range x {
			x[i] = cmplx.Conj(x[i])
		}
		FFT(x)
		for i := range x {
			x[i] = cmplx.Conj(x[i]) / complex(float64(n), 0)
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d: roundtrip[%d] = %v, want %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	// Property: sum |x|^2 == (1/N) sum |X|^2 for random signals.
	f := func(seed uint64) bool {
		rng := NewRand(seed, 99)
		n := 1 << (1 + rng.IntN(7)) // 2..128
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		timePower := ComplexPower(x) * float64(n)
		FFT(x)
		freqPower := ComplexPower(x) * float64(n) / float64(n)
		return math.Abs(timePower-freqPower) < 1e-6*(1+timePower)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	// Property: FFT(a*x + b*y) == a*FFT(x) + b*FFT(y).
	f := func(seed uint64) bool {
		rng := NewRand(seed, 7)
		const n = 32
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		b := complex(rng.NormFloat64(), rng.NormFloat64())
		x := make([]complex128, n)
		y := make([]complex128, n)
		mix := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			mix[i] = a*x[i] + b*y[i]
		}
		FFT(x)
		FFT(y)
		FFT(mix)
		for i := range mix {
			want := a*x[i] + b*y[i]
			if cmplx.Abs(mix[i]-want) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FFT on length 3 should panic")
		}
	}()
	FFT(make([]complex128, 3))
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-5: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false, want true", n)
		}
	}
	for _, n := range []int{0, -2, 3, 12, 1023} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true, want false", n)
		}
	}
}

// powerSpectrum returns |X[k]|^2 / N for the FFT of the real series x,
// zero-padded to the next power of two: the two-sided spectrum the noise
// tests check shapes against.
func powerSpectrum(x []float64) []float64 {
	n := NextPow2(len(x))
	buf := make([]complex128, n)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	FFT(buf)
	ps := make([]float64, n)
	inv := 1 / float64(n)
	for i, v := range buf {
		re, im := real(v), imag(v)
		ps[i] = (re*re + im*im) * inv
	}
	return ps
}

func TestPowerSpectrumTone(t *testing.T) {
	// A real cosine at bin k puts equal power in bins k and N-k.
	const n, k = 128, 10
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * k * float64(i) / n)
	}
	ps := powerSpectrum(x)
	iMax, _ := Argmax(ps)
	if iMax != k && iMax != n-k {
		t.Fatalf("peak at bin %d, want %d or %d", iMax, k, n-k)
	}
	if math.Abs(ps[k]-ps[n-k]) > 1e-9 {
		t.Errorf("asymmetric spectrum: %g vs %g", ps[k], ps[n-k])
	}
}

func TestArgmaxAbs(t *testing.T) {
	x := []complex128{1, 2i, complex(-3, 0), complex(0, 0)}
	i, mag := ArgmaxAbs(x)
	if i != 2 || math.Abs(mag-3) > 1e-12 {
		t.Fatalf("ArgmaxAbs = (%d, %g), want (2, 3)", i, mag)
	}
	if i, _ := ArgmaxAbs(nil); i != -1 {
		t.Fatalf("ArgmaxAbs(nil) index = %d, want -1", i)
	}
}
