package fxp

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"saiyan/internal/analog"
	"saiyan/internal/dsp"
)

// hysteresisRef is the Eq. (3) loop DecodePeakTracking ran inline on ADC
// codes before it held an analog.Comparator[Q15]. It is generic here only
// so that the float instantiation can be checked on NaN as well.
func hysteresisRef[T cmp.Ordered](high, low T, env []T) []bool {
	bits := make([]bool, len(env))
	state := false
	for i, a := range env {
		if state {
			state = a >= low
		} else {
			state = a >= high
		}
		bits[i] = state
	}
	return bits
}

// TestQ15ComparatorMatchesInlineLoop holds analog.Comparator[Q15] to the
// former inline loop: ordinary, equal and inverted (High < Low)
// thresholds, the code rails, and a destination buffer reused across
// calls of shrinking and growing length.
func TestQ15ComparatorMatchesInlineLoop(t *testing.T) {
	rng := dsp.NewRand(11, 3)
	env := []Q15{0, 400, 1000, 999, 401, 399, MaxQ15, MinQ15, 1000, 400}
	for range 512 {
		env = append(env, Q15(rng.IntN(1<<16)-1<<15))
	}
	var buf []bool
	for _, th := range [][2]Q15{{1000, 400}, {500, 500}, {400, 1000}, {MaxQ15, MinQ15}, {MinQ15, MaxQ15}, {0, 0}} {
		for _, n := range []int{len(env), 7, len(env) / 2, len(env)} {
			want := hysteresisRef(th[0], th[1], env[:n])
			buf = analog.Comparator[Q15]{High: th[0], Low: th[1]}.Quantize(buf, env[:n])
			if !slices.Equal(buf, want) {
				t.Fatalf("High %d Low %d n %d: Comparator[Q15] diverges from the inline loop", th[0], th[1], n)
			}
		}
	}

	// The float instantiation on the same reference, NaN included: a NaN
	// sample reads low from either state, and a NaN threshold never passes.
	x := []float64{0.9, math.NaN(), 0.9, 0.5, math.NaN(), 0.3, 1, 0.5, 0.2}
	nan := math.NaN()
	for _, th := range [][2]float64{{0.8, 0.4}, {0.5, 0.5}, {0.4, 0.8}, {nan, 0.4}, {0.8, nan}, {nan, nan}} {
		want := hysteresisRef(th[0], th[1], x)
		if got := (analog.Comparator[float64]{High: th[0], Low: th[1]}).Quantize(nil, x); !slices.Equal(got, want) {
			t.Errorf("High %v Low %v: got %v, want %v", th[0], th[1], got, want)
		}
	}
}
