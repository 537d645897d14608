package dsp

import (
	"math"
	"testing"
)

func TestWindowsBasics(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		if w.String() == "unknown" {
			t.Errorf("window %d has no name", w)
		}
		coef := w.Make(33)
		// Symmetry.
		for i := 0; i < len(coef)/2; i++ {
			if math.Abs(coef[i]-coef[len(coef)-1-i]) > 1e-12 {
				t.Errorf("%s not symmetric at %d", w, i)
			}
		}
		// Peak at center, non-negative.
		mid := coef[len(coef)/2]
		for i, v := range coef {
			if v < -1e-12 {
				t.Errorf("%s[%d] negative: %g", w, i, v)
			}
			if v > mid+1e-12 {
				t.Errorf("%s[%d]=%g exceeds center %g", w, i, v, mid)
			}
		}
	}
	if len(Hann.Make(0)) != 0 {
		t.Error("zero-length window should be empty")
	}
	if one := Hann.Make(1); one[0] != 1 {
		t.Error("length-1 window should be [1]")
	}
	if Window(99).String() != "unknown" {
		t.Error("unknown window should stringify as unknown")
	}
}
