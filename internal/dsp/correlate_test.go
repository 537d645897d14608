package dsp

import (
	"testing"
	"testing/quick"
)

func TestNormalizedCrossCorrelateBounds(t *testing.T) {
	// Property: NCC values always lie in [-1, 1], and a perfect match
	// scores 1 at its lag.
	f := func(seed uint64) bool {
		rng := NewRand(seed, 13)
		h := make([]float64, 8+rng.IntN(24))
		for i := range h {
			h[i] = rng.NormFloat64()
		}
		x := make([]float64, 4*len(h))
		for i := range x {
			x[i] = 0.1 * rng.NormFloat64()
		}
		at := len(h)
		copy(x[at:], h)
		c := NormalizedCrossCorrelate(nil, x, h)
		for _, v := range c {
			if v < -1.0000001 || v > 1.0000001 {
				return false
			}
		}
		i, v := Argmax(c)
		return i == at && v > 0.999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedCrossCorrelateFlatRegions(t *testing.T) {
	// Zero-variance windows must correlate to 0, not NaN.
	x := make([]float64, 40) // all zeros
	h := []float64{1, -1, 1, -1}
	c := NormalizedCrossCorrelate(nil, x, h)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("c[%d] = %g, want 0 for flat window", i, v)
		}
	}
	// Flat template must also yield zeros.
	h2 := []float64{2, 2, 2}
	x2 := []float64{1, 5, 3, 2, 4, 1}
	for i, v := range NormalizedCrossCorrelate(nil, x2, h2) {
		if v != 0 {
			t.Fatalf("flat template c[%d] = %g, want 0", i, v)
		}
	}
}

func TestArgmaxArgmin(t *testing.T) {
	x := []float64{3, 9, -2, 9, 0}
	if i, v := Argmax(x); i != 1 || v != 9 {
		t.Errorf("Argmax = (%d,%g), want (1,9) with earliest-tie rule", i, v)
	}
	if i, _ := Argmax(nil); i != -1 {
		t.Errorf("Argmax(nil) = %d, want -1", i)
	}
}
