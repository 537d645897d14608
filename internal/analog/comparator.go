package analog

// Comparator quantizes the baseband envelope into a binary voltage stream.
// Saiyan's design (Section 2.2, Eq. (3)) uses two thresholds with
// hysteresis: the output goes high only when the input exceeds High, and
// returns low only when the input falls below Low, so amplitude chatter
// between the two rails cannot toggle the output.
type Comparator struct {
	High float64 // U_H
	Low  float64 // U_L
}

// Quantize implements Eq. (3): B_i depends on A_i and B_{i-1}. The initial
// state is low. dst is grown as needed and returned.
func (c Comparator) Quantize(dst []bool, x []float64) []bool {
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

// SingleThreshold is the naive comparator the paper compares against in
// Figure 7: one cut-off voltage, no hysteresis.
type SingleThreshold struct {
	Level float64
}

// Quantize outputs high whenever the input is at or above the level.
func (s SingleThreshold) Quantize(dst []bool, x []float64) []bool {
	if cap(dst) < len(x) {
		dst = make([]bool, len(x))
	}
	dst = dst[:len(x)]
	for i, a := range x {
		dst[i] = a >= s.Level
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
