package analog

import (
	"math"
	"slices"
	"testing"

	"saiyan/internal/dsp"
)

// Quantization-edge coverage for the comparator and sampler — the two
// analog stages the fixed-point datapath's ADC quantizer sits behind. The
// fxp decoder inherits whatever these produce at the rails, so the rails
// must be well defined: saturating inputs, empty windows, single samples.

func TestComparatorQuantizeEdges(t *testing.T) {
	c := Comparator[float64]{High: 1.0, Low: 0.5}

	if got := c.Quantize(nil, nil); len(got) != 0 {
		t.Errorf("empty input produced %d bits", len(got))
	}
	if got := c.Quantize(nil, []float64{2.0}); len(got) != 1 || !got[0] {
		t.Errorf("single sample above U_H = %v, want [true]", got)
	}
	if got := c.Quantize(nil, []float64{0.75}); len(got) != 1 || got[0] {
		t.Errorf("single sample in the hysteresis band from low state = %v, want [false]", got)
	}

	// Exact-threshold samples: Eq. (3) uses >=, so landing exactly on U_H
	// sets the output and exactly on U_L holds it.
	got := c.Quantize(nil, []float64{1.0, 0.5, 0.499})
	if !got[0] || !got[1] || got[2] {
		t.Errorf("threshold-exact sequence = %v, want [true true false]", got)
	}

	// Full-scale saturation: +Inf rails high, -Inf and NaN never latch
	// (every comparison with NaN is false, so the state falls low).
	got = c.Quantize(nil, []float64{math.Inf(1), math.Inf(-1), math.Inf(1), math.NaN()})
	if !got[0] || got[1] || !got[2] || got[3] {
		t.Errorf("saturating sequence = %v, want [true false true false]", got)
	}

	// A degenerate comparator (U_H == U_L) is a single threshold.
	d := Comparator[float64]{High: 1, Low: 1}
	got = d.Quantize(nil, []float64{1, 0.999, 1})
	if !got[0] || got[1] || !got[2] {
		t.Errorf("degenerate comparator = %v, want [true false true]", got)
	}
}

func TestComparatorQuantizeReusesBuffer(t *testing.T) {
	c := Comparator[float64]{High: 1, Low: 0}
	buf := make([]bool, 0, 8)
	out := c.Quantize(buf, []float64{2, 2, 2})
	if &out[0] != &buf[:1][0] {
		t.Error("Quantize reallocated despite sufficient capacity")
	}
	// Shrinking input reuses too and trims the length.
	out2 := c.Quantize(out, []float64{2})
	if len(out2) != 1 {
		t.Errorf("len = %d after shrink", len(out2))
	}
}

// singleThresholdRef is Figure 7's naive comparator written out on its
// own: high whenever the sample is at or above the level, no state.
func singleThresholdRef(level float64, x []float64) []bool {
	out := make([]bool, len(x))
	for i, a := range x {
		out[i] = a >= level
	}
	return out
}

// TestComparatorEqualThresholdsIsSingleThreshold holds Comparator with
// U_H == U_L to the single-threshold loop sample for sample, NaN and the
// infinities included: both hysteresis branches then test a >= level.
func TestComparatorEqualThresholdsIsSingleThreshold(t *testing.T) {
	x := []float64{0, 0.5, 0.5, 0.49, 1, math.NaN(), 0.5, math.Inf(1), math.Inf(-1), math.NaN(), 0.5}
	rng := dsp.NewRand(5, 7)
	for range 256 {
		x = append(x, rng.Float64())
	}
	var buf []bool
	for _, level := range []float64{0.5, 0, 1, math.Inf(1), math.Inf(-1), math.NaN()} {
		want := singleThresholdRef(level, x)
		// Reuse one buffer across levels so stale bits would show.
		buf = Comparator[float64]{High: level, Low: level}.Quantize(buf, x)
		if !slices.Equal(buf, want) {
			t.Errorf("level %v: Comparator{L, L} = %v, want %v", level, buf, want)
		}
	}
}
