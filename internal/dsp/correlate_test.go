package dsp

import (
	"math"
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

// refNormalizedCrossCorrelate is NormalizedCrossCorrelate as written before
// the template centering split off: the reference the centered kernel must
// match bit for bit.
func refNormalizedCrossCorrelate(x, h []float64) []float64 {
	n := len(x) - len(h) + 1
	if n <= 0 {
		return nil
	}
	dst := make([]float64, n)
	m := len(h)
	hm := Mean(h)
	hc := make([]float64, m)
	var hEnergy float64
	for i, v := range h {
		hc[i] = v - hm
		hEnergy += hc[i] * hc[i]
	}
	if hEnergy == 0 {
		return dst
	}
	hNorm := math.Sqrt(hEnergy)
	var sum, sumSq float64
	for _, v := range x[:m] {
		sum += v
		sumSq += v * v
	}
	for lag := 0; lag < n; lag++ {
		if lag > 0 {
			out := x[lag-1]
			in := x[lag+m-1]
			sum += in - out
			sumSq += in*in - out*out
		}
		mean := sum / float64(m)
		energy := sumSq - float64(m)*mean*mean
		if energy <= 0 {
			continue
		}
		var dot float64
		seg := x[lag : lag+m]
		for i, hv := range hc {
			dot += hv * seg[i]
		}
		dst[lag] = dot / (hNorm * math.Sqrt(energy))
	}
	return dst
}

// TestNormalizedCrossCorrelateCenteredBitIdentical holds the centered
// kernel, fed a CenterTemplate result and a reused output buffer, and the
// NormalizedCrossCorrelate wrapper, bit-identical to the reference on
// random, offset, flat and too-short inputs.
func TestNormalizedCrossCorrelateCenteredBitIdentical(t *testing.T) {
	rng := NewRand(11, 13)
	var dst []float64
	for trial := 0; trial < 200; trial++ {
		h := make([]float64, 1+rng.IntN(40))
		x := make([]float64, rng.IntN(200))
		offset := 10 * rng.NormFloat64()
		for i := range h {
			h[i] = offset + rng.NormFloat64()
		}
		for i := range x {
			x[i] = offset + rng.NormFloat64()
		}
		switch trial % 5 {
		case 1: // flat template
			for i := range h {
				h[i] = offset
			}
		case 2: // flat stretch in x
			for i := 0; i < len(x)/2; i++ {
				x[i] = offset
			}
		}
		hc, norm := CenterTemplate(h)
		want := refNormalizedCrossCorrelate(x, h)
		dst = NormalizedCrossCorrelateCentered(dst, x, hc, norm)
		for name, got := range map[string][]float64{"centered": dst, "wrapper": NormalizedCrossCorrelate(nil, x, h)} {
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d lags, want %d", trial, name, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d %s: lag %d = %v, want %v", trial, name, i, got[i], want[i])
				}
			}
		}
	}
}

// refCentered is NormalizedCrossCorrelateCentered as written before the
// lag loop moved into SlidingNCC: the reference the stepper must match bit
// for bit.
func refCentered(x, hc []float64, hNorm float64) []float64 {
	m := len(hc)
	n := len(x) - m + 1
	if n <= 0 {
		return nil
	}
	dst := make([]float64, n)
	if hNorm == 0 {
		return dst
	}
	var sum, sumSq float64
	for _, v := range x[:m] {
		sum += v
		sumSq += v * v
	}
	for lag := 0; lag < n; lag++ {
		if lag > 0 {
			out := x[lag-1]
			in := x[lag+m-1]
			sum += in - out
			sumSq += in*in - out*out
		}
		mean := sum / float64(m)
		energy := sumSq - float64(m)*mean*mean
		if energy <= 0 {
			dst[lag] = 0
			continue
		}
		var dot float64
		seg := x[lag : lag+m]
		for i, hv := range hc {
			dot += hv * seg[i]
		}
		dst[lag] = dot / (hNorm * math.Sqrt(energy))
	}
	return dst
}

// TestSlidingNCCBitIdentical holds SlidingNCC, stepped lag by lag after a
// reused Reset, and the NormalizedCrossCorrelateCentered loop over it,
// bit-identical to the pre-stepper kernel: on regular inputs and on NaN,
// ±Inf, zero-energy, flat-template and too-short ones.
func TestSlidingNCCBitIdentical(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ramp := func(n int, at int, v float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(0.7*float64(i)) + 0.01*float64(i)
		}
		if at >= 0 {
			x[at] = v
		}
		return x
	}
	tmpl := []float64{0.1, 0.9, 0.4, -0.3, 0.2, 0.6}
	cases := []struct {
		name string
		x, h []float64
	}{
		{"regular", ramp(40, -1, 0), tmpl},
		{"nan-early", ramp(40, 2, nan), tmpl},
		{"nan-late", ramp(40, 33, nan), tmpl},
		{"+inf", ramp(40, 10, inf), tmpl},
		{"-inf", ramp(40, 10, -inf), tmpl},
		{"zero-energy", make([]float64, 30), tmpl},
		{"flat-run", append(append(ramp(12, -1, 0), 5, 5, 5, 5, 5, 5, 5, 5, 5, 5), ramp(12, -1, 0)...), tmpl},
		{"flat-template", ramp(20, -1, 0), []float64{3, 3, 3}},
		{"nan-template", ramp(20, -1, 0), []float64{1, nan, 2}},
		{"exact-length", ramp(6, -1, 0), tmpl},
		{"too-short", ramp(5, -1, 0), tmpl},
		{"empty", nil, tmpl},
		{"one-tap", ramp(9, 4, nan), []float64{2}},
		{"large-offset", append(ramp(30, -1, 0), 1e9, 1e9+1, 1e9-1, 1e9), tmpl},
	}
	var s SlidingNCC
	var dst []float64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hc, norm := CenterTemplate(tc.h)
			want := refCentered(tc.x, hc, norm)
			n := s.Reset(tc.x, hc, norm)
			if n != len(want) {
				t.Fatalf("Reset reports %d lags, want %d", n, len(want))
			}
			dst = NormalizedCrossCorrelateCentered(dst, tc.x, hc, norm)
			if len(dst) != len(want) {
				t.Fatalf("NormalizedCrossCorrelateCentered: %d lags, want %d", len(dst), len(want))
			}
			for lag := range want {
				w := math.Float64bits(want[lag])
				if got := s.Next(); math.Float64bits(got) != w {
					t.Fatalf("stepper lag %d = %v, want %v", lag, got, want[lag])
				}
				if math.Float64bits(dst[lag]) != w {
					t.Fatalf("loop lag %d = %v, want %v", lag, dst[lag], want[lag])
				}
			}
		})
	}
}
