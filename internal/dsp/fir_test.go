package dsp

import (
	"math"
	"testing"
)

// toneResponse measures the output/input amplitude ratio of filter f for a
// tone at freqHz.
func toneResponse(t *testing.T, f *FIR, freqHz, fs float64) float64 {
	t.Helper()
	n := 4096
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freqHz * float64(i) / fs)
	}
	y := f.Apply(nil, x)
	// Skip the edges where the convolution is partial.
	m := len(f.taps)
	energy := func(v []float64) float64 {
		var e float64
		for _, s := range v {
			e += s * s
		}
		return e
	}
	return math.Sqrt(energy(y[m:n-m]) / energy(x[m:n-m]))
}

func TestLowPassPassesAndStops(t *testing.T) {
	const fs = 100000.0
	f, err := NewLowPass(5000, fs, 101, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	if g := toneResponse(t, f, 1000, fs); math.Abs(g-1) > 0.05 {
		t.Errorf("passband gain at 1 kHz = %g, want ~1", g)
	}
	if g := toneResponse(t, f, 25000, fs); g > 0.01 {
		t.Errorf("stopband gain at 25 kHz = %g, want < 0.01", g)
	}
}

func TestLowPassDCGain(t *testing.T) {
	f, err := NewLowPass(1000, 48000, 63, Hann)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, tap := range f.taps {
		sum += tap
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("DC gain = %g, want 1", sum)
	}
}

func TestLowPassRejectsBadParams(t *testing.T) {
	if _, err := NewLowPass(5000, 100000, 100, Hamming); err == nil {
		t.Error("even tap count accepted")
	}
	if _, err := NewLowPass(0, 100000, 101, Hamming); err == nil {
		t.Error("zero cutoff accepted")
	}
	if _, err := NewLowPass(60000, 100000, 101, Hamming); err == nil {
		t.Error("cutoff above Nyquist accepted")
	}
}

func TestBandPassSelectsBand(t *testing.T) {
	const fs = 1e6
	f, err := NewBandPass(90e3, 110e3, fs, 129, Blackman)
	if err != nil {
		t.Fatal(err)
	}
	if g := toneResponse(t, f, 100e3, fs); math.Abs(g-1) > 0.1 {
		t.Errorf("center gain = %g, want ~1", g)
	}
	if g := toneResponse(t, f, 10e3, fs); g > 0.05 {
		t.Errorf("low-side rejection = %g, want < 0.05", g)
	}
	if g := toneResponse(t, f, 300e3, fs); g > 0.05 {
		t.Errorf("high-side rejection = %g, want < 0.05", g)
	}
}

func TestBandPassRejectsBadParams(t *testing.T) {
	if _, err := NewBandPass(0, 1000, 48000, 65, Hann); err == nil {
		t.Error("zero low edge accepted")
	}
	if _, err := NewBandPass(2000, 1000, 48000, 65, Hann); err == nil {
		t.Error("inverted band accepted")
	}
	if _, err := NewBandPass(1000, 30000, 48000, 65, Hann); err == nil {
		t.Error("band above Nyquist accepted")
	}
}

func TestApplyPreservesAlignment(t *testing.T) {
	// An impulse through a symmetric filter should stay centered.
	f, err := NewLowPass(1000, 8000, 31, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 101)
	x[50] = 1
	y := f.Apply(nil, x)
	if len(y) != len(x) {
		t.Fatalf("len(y) = %d, want %d", len(y), len(x))
	}
	i, _ := Argmax(y)
	if i != 50 {
		t.Errorf("impulse response peak at %d, want 50 (group delay not compensated)", i)
	}
}

// referenceApply is the straightforward one-output-at-a-time convolution
// with a bounds test on every tap: the oracle FIR.Apply and
// FIR.ApplyDecimated must reproduce bit for bit.
func referenceApply(taps, x []float64) []float64 {
	n := len(x)
	dst := make([]float64, n)
	half := len(taps) / 2
	for i := 0; i < n; i++ {
		acc := 0.0
		// y[i] = sum_k h[k] * x[i + half - k]
		for k, tap := range taps {
			j := i + half - k
			if j < 0 || j >= n {
				continue
			}
			acc += tap * x[j]
		}
		dst[i] = acc
	}
	return dst
}

// checkBitExact fails unless got[m] has the same bits as want[offset+m*factor]
// for every decimated output.
func checkBitExact(t *testing.T, got, want []float64, factor, offset int) {
	t.Helper()
	ref := Decimate(nil, want, factor, offset)
	if len(got) != len(ref) {
		t.Fatalf("factor %d offset %d: %d outputs, want %d", factor, offset, len(got), len(ref))
	}
	for m := range ref {
		if math.Float64bits(got[m]) != math.Float64bits(ref[m]) {
			t.Fatalf("factor %d offset %d: output %d = %v, oracle %v", factor, offset, m, got[m], ref[m])
		}
	}
}

// firFixture draws a filter of the given odd tap count and an input series
// of length n. A mix of magnitudes, signs and exact zeros makes the sums
// sensitive to any change of summation order.
func firFixture(seed uint64, taps, n int) (*FIR, []float64) {
	rng := NewRand(seed, 0x5eed)
	draw := func() float64 {
		switch rng.IntN(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return rng.NormFloat64() * 1e8
		case 3:
			return rng.NormFloat64() * 1e-8
		}
		return rng.NormFloat64()
	}
	h := make([]float64, taps)
	for i := range h {
		h[i] = draw()
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = draw()
	}
	return NewFIR(h), x
}

func TestApplyMatchesReference(t *testing.T) {
	for _, taps := range []int{3, 5, 31, 63, 101} {
		for _, n := range []int{0, 1, 2, 3, taps - 1, taps, taps + 1, 2*taps + 3, 257} {
			f, x := firFixture(uint64(taps*1000+n), taps, n)
			want := referenceApply(f.taps, x)
			checkBitExact(t, f.Apply(nil, x), want, 1, 0)
			for _, dec := range [][2]int{{4, 2}, {16, 8}, {3, 0}, {5, 4}, {1, 7}} {
				checkBitExact(t, f.ApplyDecimated(nil, x, dec[0], dec[1]), want, dec[0], dec[1])
			}
		}
	}
}

// FuzzFIRApply checks the interleaved FIR kernel against referenceApply over
// tap counts 3..101 (odd), input lengths 0..400 (including n < taps and
// n not a multiple of 4), and decimation factors and offsets: every output
// must be bit-identical to the oracle.
func FuzzFIRApply(f *testing.F) {
	f.Add(uint64(1), uint8(30), uint16(400), uint8(16), uint8(8))
	f.Add(uint64(2), uint8(0), uint16(0), uint8(1), uint8(0))
	f.Add(uint64(3), uint8(49), uint16(50), uint8(4), uint8(2))
	f.Add(uint64(4), uint8(3), uint16(7), uint8(3), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, halfTaps uint8, n uint16, factor, offset uint8) {
		taps := 2*int(halfTaps%50) + 3
		fir, x := firFixture(seed, taps, int(n%401))
		want := referenceApply(fir.taps, x)
		checkBitExact(t, fir.Apply(nil, x), want, 1, 0)
		fac, off := 1+int(factor%32), int(offset%40)
		checkBitExact(t, fir.ApplyDecimated(nil, x, fac, off), want, fac, off)
	})
}

func BenchmarkFIRApply(b *testing.B) {
	f, x := firFixture(1, 63, 1<<16)
	dst := make([]float64, len(x))
	b.SetBytes(int64(8 * len(x)))
	for b.Loop() {
		dst = f.Apply(dst, x)
	}
}

func BenchmarkFIRApplyReference(b *testing.B) {
	f, x := firFixture(1, 63, 1<<16)
	b.SetBytes(int64(8 * len(x)))
	for b.Loop() {
		referenceApply(f.taps, x)
	}
}

func TestMovingAverageConstant(t *testing.T) {
	x := make([]float64, 50)
	for i := range x {
		x[i] = 3.5
	}
	y := MovingAverage(nil, x, 7)
	for i, v := range y {
		if math.Abs(v-3.5) > 1e-12 {
			t.Fatalf("y[%d] = %g, want 3.5", i, v)
		}
	}
}

func TestMovingAverageSmooths(t *testing.T) {
	rng := NewRand(5, 6)
	x := make([]float64, 2000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := MovingAverage(nil, x, 21)
	if vy, vx := Variance(y), Variance(x); vy > vx/5 {
		t.Errorf("moving average variance %g not much below input %g", vy, vx)
	}
}

func TestMovingAverageDegenerateWidths(t *testing.T) {
	x := []float64{1, 2, 3}
	y := MovingAverage(nil, x, 0) // clamps to 1: identity
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("width-1 average changed data: %v", y)
		}
	}
	y = MovingAverage(nil, x, 100) // clamps to len(x)
	if len(y) != 3 {
		t.Fatalf("len = %d, want 3", len(y))
	}
}

func TestNewFIRCopiesTaps(t *testing.T) {
	taps := []float64{1, 2, 3}
	f := NewFIR(taps)
	taps[0] = 99
	if f.taps[0] != 1 {
		t.Error("NewFIR aliased caller's slice")
	}
	if len(f.taps) != 3 {
		t.Errorf("len(taps) = %d, want 3", len(f.taps))
	}
}

func TestDecimate(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	y := Decimate(nil, x, 3, 1)
	want := []float64{1, 4, 7}
	if len(y) != len(want) {
		t.Fatalf("len = %d, want %d", len(y), len(want))
	}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

func TestDecimateDegenerate(t *testing.T) {
	x := []float64{1, 2, 3}
	if y := Decimate(nil, x, 0, 0); len(y) != 3 { // factor clamps to 1
		t.Errorf("factor 0: len = %d, want 3", len(y))
	}
	if y := Decimate(nil, x, 2, 10); len(y) != 0 {
		t.Errorf("offset beyond end: len = %d, want 0", len(y))
	}
	if y := Decimate(nil, x, 2, -1); len(y) != 2 { // offset clamps to 0
		t.Errorf("negative offset: len = %d, want 2", len(y))
	}
}
