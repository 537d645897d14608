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
// template, and it allocates only when dst is too small. It is a loop over
// SlidingNCC; a caller that can stop early steps a SlidingNCC itself.
func NormalizedCrossCorrelateCentered(dst, x, hc []float64, hNorm float64) []float64 {
	var s SlidingNCC
	n := s.Reset(x, hc, hNorm)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for lag := range dst {
		dst[lag] = s.Next()
	}
	return dst
}

// SlidingNCC steps NormalizedCrossCorrelateCentered one lag at a time,
// so a caller that knows its answer after a prefix of the lags can stop
// there. It keeps the sliding window sums between calls, and every lag
// comes out bit-identical to the full correlation's. The zero value is
// ready for Reset.
type SlidingNCC struct {
	x, hc      []float64
	hNorm      float64
	sum, sumSq float64 // sliding sums over the current lag's window
	lag        int     // next lag
}

// Reset points s at signal x and centered template hc (with norm hNorm),
// positioned at lag 0, and returns the number of lags, len(x)-len(hc)+1
// (0 when x is shorter than the template). It allocates nothing.
func (s *SlidingNCC) Reset(x, hc []float64, hNorm float64) int {
	n := max(len(x)-len(hc)+1, 0)
	*s = SlidingNCC{x: x, hc: hc, hNorm: hNorm}
	if n == 0 || hNorm == 0 {
		return n
	}
	for _, v := range x[:len(hc)] {
		s.sum += v
		s.sumSq += v * v
	}
	return n
}

// Next returns the correlation at the next lag and advances. Windows with
// zero variance, and every lag against a flat template (hNorm 0),
// correlate to 0. Next must be called at most the number of lags Reset
// returned.
//
//saiyan:hotpath
func (s *SlidingNCC) Next() float64 {
	lag := s.lag
	s.lag++
	if s.hNorm == 0 {
		return 0
	}
	m := len(s.hc)
	if lag > 0 {
		out := s.x[lag-1]
		in := s.x[lag+m-1]
		s.sum += in - out
		s.sumSq += in*in - out*out
	}
	mean := s.sum / float64(m)
	energy := s.sumSq - float64(m)*mean*mean
	if energy <= 0 {
		return 0
	}
	var dot float64
	seg := s.x[lag : lag+m]
	for i, hv := range s.hc {
		dot += hv * seg[i]
	}
	return dot / (s.hNorm * math.Sqrt(energy))
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
