package dsp

import "math"

// NormalizedCrossCorrelate computes the normalized cross-correlation
// (cosine similarity of the zero-mean template with each zero-mean window of
// x), yielding values in [-1, 1]. Windows with zero variance correlate to 0.
// Callers that correlate against one template repeatedly center it once
// with CenterTemplate and call NormalizedCrossCorrelateCentered.
func NormalizedCrossCorrelate(dst, x, h []float64) []float64 {
	hc, hNorm := CenterTemplate(h)
	return NormalizedCrossCorrelateCentered(dst, x, hc, hNorm)
}

// CenterTemplate returns the zero-mean copy of template h and its L2 norm:
// the template half of NormalizedCrossCorrelate, in the same arithmetic
// order.
func CenterTemplate(h []float64) ([]float64, float64) {
	hc := make([]float64, len(h))
	hm := Mean(h)
	var hEnergy float64
	for i, v := range h {
		hc[i] = v - hm
		hEnergy += hc[i] * hc[i]
	}
	return hc, math.Sqrt(hEnergy)
}

// NormalizedCrossCorrelateCentered is NormalizedCrossCorrelate against a
// template already centered by CenterTemplate (hc, with norm hNorm). Its
// results are bit-identical to NormalizedCrossCorrelate on the original
// template, and it allocates only when dst is too small.
func NormalizedCrossCorrelateCentered(dst, x, hc []float64, hNorm float64) []float64 {
	m := len(hc)
	n := len(x) - m + 1
	if n <= 0 {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if hNorm == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	// Sliding sums for the window mean and energy.
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

// Argmax returns the index and value of the maximum element of x, or (-1, 0)
// if x is empty. Ties resolve to the earliest index.
func Argmax(x []float64) (int, float64) {
	if len(x) == 0 {
		return -1, 0
	}
	best, bestV := 0, x[0]
	for i, v := range x[1:] {
		if v > bestV {
			best, bestV = i+1, v
		}
	}
	return best, bestV
}
