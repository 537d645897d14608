package dsp

import "math"

// NormalizedCrossCorrelate computes the normalized cross-correlation
// (cosine similarity of the zero-mean template with each zero-mean window of
// x), yielding values in [-1, 1]. Windows with zero variance correlate to 0.
func NormalizedCrossCorrelate(dst, x, h []float64) []float64 {
	n := len(x) - len(h) + 1
	if n <= 0 {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	m := len(h)
	hm := Mean(h)
	hc := make([]float64, m)
	var hEnergy float64
	for i, v := range h {
		hc[i] = v - hm
		hEnergy += hc[i] * hc[i]
	}
	if hEnergy == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	hNorm := math.Sqrt(hEnergy)
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
