package dsp

import (
	"math"
	"testing"
)

func TestNewRandDeterminism(t *testing.T) {
	a := NewRand(42, 7)
	b := NewRand(42, 7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(42, 8)
	same := true
	a = NewRand(42, 7)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestAddWhiteNoiseStats(t *testing.T) {
	rng := NewRand(1, 1)
	x := make([]float64, 200000)
	AddWhiteNoise(x, 2.0, rng)
	if m := Mean(x); math.Abs(m) > 0.05 {
		t.Errorf("mean = %g, want ~0", m)
	}
	if s := StdDev(x); math.Abs(s-2) > 0.05 {
		t.Errorf("stddev = %g, want ~2", s)
	}
}

func TestAddWhiteNoiseNoopForZeroSigma(t *testing.T) {
	x := []float64{1, 2, 3}
	AddWhiteNoise(x, 0, NewRand(1, 1))
	if x[0] != 1 || x[1] != 2 || x[2] != 3 {
		t.Fatal("sigma=0 modified the signal")
	}
}

func TestAddComplexNoisePower(t *testing.T) {
	rng := NewRand(9, 9)
	x := make([]complex128, 100000)
	const p = 0.25
	AddComplexNoise(x, p, rng)
	if got := ComplexPower(x); math.Abs(got-p) > 0.02 {
		t.Errorf("noise power = %g, want %g", got, p)
	}
}

func TestPinkNoiseSpectrumSlopesDown(t *testing.T) {
	rng := NewRand(4, 4)
	n := 1 << 14
	x := PinkNoise(make([]float64, n), rng)
	ps := powerSpectrum(x)
	// Compare average power in a low band vs a high band: pink noise has
	// more energy at low frequencies.
	low := Mean(ps[1:32])
	high := Mean(ps[n/4 : n/2])
	if low < 4*high {
		t.Errorf("pink noise low/high power ratio = %g, want > 4", low/high)
	}
}

func TestPinkNoiseVarianceNearUnity(t *testing.T) {
	rng := NewRand(8, 8)
	x := PinkNoise(make([]float64, 1<<15), rng)
	v := Variance(x)
	if v < 0.3 || v > 3 {
		t.Errorf("pink noise variance = %g, want within [0.3, 3]", v)
	}
}
