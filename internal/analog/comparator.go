package analog

import "cmp"

// Comparator quantizes the baseband envelope into a binary voltage stream.
// Saiyan's design (Section 2.2, Eq. (3)) uses two thresholds with
// hysteresis: the output goes high only when the input exceeds High, and
// returns low only when the input falls below Low, so amplitude chatter
// between the two rails cannot toggle the output. With High == Low it is
// the naive single-threshold comparator of Figure 7. T is the sample type:
// float64 volts here, ADC codes on the fixed-point datapath.
type Comparator[T cmp.Ordered] struct {
	High T // U_H
	Low  T // U_L
}

// Quantize implements Eq. (3): B_i depends on A_i and B_{i-1}. The initial
// state is low. dst is grown as needed and returned.
func (c Comparator[T]) Quantize(dst []bool, x []T) []bool {
	if cap(dst) < len(x) {
		dst = make([]bool, len(x))
	}
	dst = dst[:len(x)]
	state := false
	for i, a := range x {
		if state {
			state = a >= c.Low
		} else {
			state = a >= c.High
		}
		dst[i] = state
	}
	return dst
}

// PeakEdge is one symbol window's peak marker, as PeakEdges classifies
// it. Own marks a mid-window falling edge at index Edge of the Len-sample
// window. Boundary marks a peak riding the window's end boundary (chirp
// position ~0); it decides the symbol only when Own is false.
type PeakEdge struct {
	Edge, Len     int
	Own, Boundary bool
}

// PeakEdges classifies each symbol window's comparator falling edges for
// the Section 2.2 peak tracker into dst (grown as needed and returned),
// window s being bits[bounds[s]:bounds[s+1]].
//
// The peak marker is the last falling edge of the comparator output (the
// t_F of Figure 7e): when the chirp wraps, the envelope collapses from the
// response top to the band bottom, forcing the high run to end. The raw
// last-high sample would not do: an early-peaking symbol's envelope ramps
// back up toward the next symbol's peak and re-crosses U_H before its
// window closes. Boundaries are delicate: a chirp peaking exactly at its
// window end makes its falling edge within two samples of the boundary,
// on either side depending on window rounding, and a next chirp starting
// lower fakes an edge in the same region. So an edge in a window's first
// two samples marks the previous window's Boundary, one in its last two
// samples its own, as does a window still high at its last sample; only
// mid-window edges are Own, and the last one wins.
//
//saiyan:hotpath
func PeakEdges(dst []PeakEdge, bits []bool, bounds []int) []PeakEdge {
	const startMargin, endMargin = 2, 2
	n := max(len(bounds)-1, 0)
	if cap(dst) < n {
		dst = make([]PeakEdge, n) //lint:allow hotalloc amortized: runs only on scratch growth
	}
	dst = dst[:n]
	for s := range dst {
		win := bits[bounds[s]:bounds[s+1]]
		dst[s] = PeakEdge{Len: len(win), Boundary: len(win) > 0 && win[len(win)-1]}
		for i := 1; i < len(win); i++ {
			if !win[i-1] || win[i] {
				continue
			}
			switch edge := i - 1; {
			case edge < startMargin:
				if s > 0 {
					dst[s-1].Boundary = true
				}
			case edge >= len(win)-endMargin:
				dst[s].Boundary = true
			default:
				dst[s].Edge, dst[s].Own = edge, true
			}
		}
	}
	return dst
}

// Transitions counts rising edges in a binary stream — the chatter metric
// used to show why the double-threshold design is needed.
func Transitions(b []bool) int {
	n := 0
	for i := 1; i < len(b); i++ {
		if b[i] && !b[i-1] {
			n++
		}
	}
	return n
}

// LastHighIndex returns the index of the final true sample (the tail t_F of
// the high run, which marks the amplitude peak in Saiyan's decoder) and
// whether any high sample exists.
func LastHighIndex(b []bool) (int, bool) {
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] {
			return i, true
		}
	}
	return 0, false
}
