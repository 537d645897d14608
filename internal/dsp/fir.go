package dsp

import (
	"fmt"
	"math"
	"slices"
)

// FIR is a finite-impulse-response filter. The zero value is unusable; build
// one with NewLowPass, NewBandPass, or NewFIR. FIR values are safe for
// concurrent use because filtering is stateless.
type FIR struct {
	taps []float64
	rev  []float64 // taps in reverse order, for dot4's bounds-check-free walk
}

// NewFIR wraps an explicit tap vector as a filter. The taps are copied.
func NewFIR(taps []float64) *FIR {
	t := make([]float64, len(taps), 2*len(taps))
	copy(t, taps)
	return newFIR(t)
}

// newFIR adopts taps (without copying) and stores their reversed copy in
// the slice's spare capacity, so a caller that allocated 2*len(taps) pays
// no second allocation.
func newFIR(taps []float64) *FIR {
	n := len(taps)
	both := slices.Grow(taps, n)[:2*n]
	for i, t := range both[:n] {
		both[2*n-1-i] = t
	}
	return &FIR{taps: both[:n:n], rev: both[n:]}
}

// NewLowPass designs a windowed-sinc low-pass filter with the given cutoff
// frequency (Hz), sampling rate (Hz), and odd tap count. It returns an error
// for invalid parameters rather than clamping silently.
func NewLowPass(cutoffHz, sampleRateHz float64, taps int, w Window) (*FIR, error) {
	if taps < 3 || taps%2 == 0 {
		return nil, fmt.Errorf("dsp: low-pass needs an odd tap count >= 3, got %d", taps)
	}
	if cutoffHz <= 0 || cutoffHz >= sampleRateHz/2 {
		return nil, fmt.Errorf("dsp: cutoff %g Hz outside (0, fs/2) for fs=%g Hz", cutoffHz, sampleRateHz)
	}
	fc := cutoffHz / sampleRateHz // normalized cutoff in cycles/sample
	mid := taps / 2
	win := w.Make(taps)
	h := make([]float64, taps, 2*taps) // spare half for newFIR's reversed taps
	sum := 0.0
	for i := range h {
		h[i] = 2 * fc * Sinc(2*fc*float64(i-mid)) * win[i]
		sum += h[i]
	}
	// Normalize to unity DC gain.
	for i := range h {
		h[i] /= sum
	}
	return newFIR(h), nil
}

// NewBandPass designs a windowed-sinc band-pass filter passing
// [lowHz, highHz]. Tap count must be odd.
func NewBandPass(lowHz, highHz, sampleRateHz float64, taps int, w Window) (*FIR, error) {
	if taps < 3 || taps%2 == 0 {
		return nil, fmt.Errorf("dsp: band-pass needs an odd tap count >= 3, got %d", taps)
	}
	if lowHz <= 0 || highHz <= lowHz || highHz >= sampleRateHz/2 {
		return nil, fmt.Errorf("dsp: band [%g, %g] Hz invalid for fs=%g Hz", lowHz, highHz, sampleRateHz)
	}
	fl := lowHz / sampleRateHz
	fh := highHz / sampleRateHz
	mid := taps / 2
	win := w.Make(taps)
	h := make([]float64, taps, 2*taps) // spare half for newFIR's reversed taps
	for i := range h {
		k := float64(i - mid)
		h[i] = (2*fh*Sinc(2*fh*k) - 2*fl*Sinc(2*fl*k)) * win[i]
	}
	// Normalize so the gain at the band center is unity.
	fc := (fl + fh) / 2
	var gr, gi float64
	for i, tap := range h {
		ang := 2 * math.Pi * fc * float64(i)
		gr += tap * math.Cos(ang)
		gi -= tap * math.Sin(ang)
	}
	g := math.Hypot(gr, gi)
	if g == 0 {
		return nil, fmt.Errorf("dsp: degenerate band-pass design")
	}
	for i := range h {
		h[i] /= g
	}
	return newFIR(h), nil
}

// Taps returns a copy of the filter's coefficients, h[0..L-1].
func (f *FIR) Taps() []float64 { return slices.Clone(f.taps) }

// ApplyDecimated filters x and keeps every factor-th output starting at
// offset, computing only the outputs it keeps. The filter output is the
// "same"-length convolution compensated for the group delay, so features
// stay aligned with the input: output i is
// y[i] = sum_k h[k] * x[i + half - k], with half = L/2 and taps that fall
// outside x skipped. dst[m] is y[offset + m*factor]; dst is allocated or
// grown as needed and returned, and must not overlap x. factor < 1 counts
// as 1 and offset < 0 as 0, as in Decimate.
//
// Each output sums into one accumulator that starts at zero and adds the
// terms in tap order k = 0..L-1. That order is a contract: float addition
// is not associative, so the bits of every output depend on it, and the
// golden trace and determinism pins hash those bits. The kernel may
// therefore interleave independent outputs — interior outputs (whose taps
// all land inside x) are computed four at a time, each in its own
// accumulator, which hides the add latency and drops the per-tap bounds
// test — but it must never reorder, split or fold (symmetric-tap) the sum
// within one output. Edge outputs go through At.
func (f *FIR) ApplyDecimated(dst, x []float64, factor, offset int) []float64 {
	factor = max(factor, 1)
	offset = max(offset, 0)
	n := len(x)
	count := 0
	if offset < n {
		count = (n - offset + factor - 1) / factor
	}
	if cap(dst) < count {
		dst = make([]float64, count)
	}
	dst = dst[:count]
	taps := f.taps
	half := len(taps) / 2
	// Outputs in [first, last] read only in-range samples.
	first, last := len(taps)-1-half, n-1-half
	m := 0
	for ; m < count && offset+m*factor < first; m++ {
		dst[m] = f.At(x, offset+m*factor)
	}
	for ; m+3 < count && offset+(m+3)*factor <= last; m += 4 {
		dst[m], dst[m+1], dst[m+2], dst[m+3] = dot4(f.rev, x, offset+m*factor+half, factor)
	}
	for ; m < count; m++ {
		dst[m] = f.At(x, offset+m*factor)
	}
	return dst
}

// At computes filter output i of x on its own, in the summation order
// ApplyDecimated's contract fixes, with a bounds test per tap: taps whose
// sample falls outside x are skipped, as if x were zero-padded.
func (f *FIR) At(x []float64, i int) float64 {
	half := len(f.taps) / 2
	acc := 0.0
	for k, tap := range f.taps {
		j := i + half - k
		if j < 0 || j >= len(x) {
			continue
		}
		acc += tap * x[j]
	}
	return acc
}

// dot4 computes four interior outputs whose k = 0 samples sit at x[j0],
// x[j0+stride], x[j0+2*stride] and x[j0+3*stride]. Each output has its own
// accumulator and sums its taps in order k = 0..L-1, exactly as At
// does, so the results are bit-identical to it.
func dot4(rev, x []float64, j0, stride int) (a0, a1, a2, a3 float64) {
	// Window u of output u holds its samples in ascending index order, so
	// tap k multiplies w[L-1-k]; walking i = L-1-k downward keeps the
	// k = 0..L-1 order and lets the compiler drop the bounds tests.
	n := len(rev)
	lo := j0 - n + 1
	w0 := x[lo:][:n]
	w1 := x[lo+stride:][:n]
	w2 := x[lo+2*stride:][:n]
	w3 := x[lo+3*stride:][:n]
	for i := n - 1; i >= 0; i-- {
		tap := rev[i]
		a0 += tap * w0[i]
		a1 += tap * w1[i]
		a2 += tap * w2[i]
		a3 += tap * w3[i]
	}
	return a0, a1, a2, a3
}

// MovingAverage computes a centered moving average of width w over x into
// dst and returns dst. Width is clamped to [1, len(x)]. Edge windows shrink
// symmetrically, so the output has no startup bias.
func MovingAverage(dst, x []float64, w int) []float64 {
	n := len(x)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	half := w / 2
	// Prefix sums for O(n) averaging.
	prefix := make([]float64, n+1)
	for i, v := range x {
		prefix[i+1] = prefix[i] + v
	}
	for i := 0; i < n; i++ {
		lo := i - half
		hi := i + half
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		dst[i] = (prefix[hi+1] - prefix[lo]) / float64(hi-lo+1)
	}
	return dst
}

// Decimate keeps every factor-th sample of x starting at offset, writing
// into dst and returning it. Callers that need anti-aliasing should low-pass
// filter first; the demodulation chain always does (the LPF stage precedes
// the voltage sampler).
//
//lint:allow unused the reference FIR.ApplyDecimated and the sampler grid are tested against
func Decimate(dst, x []float64, factor, offset int) []float64 {
	if factor < 1 {
		factor = 1
	}
	if offset < 0 {
		offset = 0
	}
	n := 0
	if offset < len(x) {
		n = (len(x) - offset + factor - 1) / factor
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = x[offset+i*factor]
	}
	return dst
}
