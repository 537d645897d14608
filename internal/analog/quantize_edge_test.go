package analog

import (
	"math"
	"testing"
)

// Quantization-edge coverage for the comparator and sampler — the two
// analog stages the fixed-point datapath's ADC quantizer sits behind. The
// fxp decoder inherits whatever these produce at the rails, so the rails
// must be well defined: saturating inputs, empty windows, single samples.

func TestComparatorQuantizeEdges(t *testing.T) {
	c := Comparator{High: 1.0, Low: 0.5}

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
	d := Comparator{High: 1, Low: 1}
	got = d.Quantize(nil, []float64{1, 0.999, 1})
	if !got[0] || got[1] || !got[2] {
		t.Errorf("degenerate comparator = %v, want [true false true]", got)
	}
}

func TestComparatorQuantizeReusesBuffer(t *testing.T) {
	c := Comparator{High: 1, Low: 0}
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

func TestNewSamplerAndComparatorValidation(t *testing.T) {
	if _, err := NewComparator(1, 2); err == nil {
		t.Error("NewComparator with U_L > U_H accepted")
	}
	if _, err := NewComparator(2, 1); err != nil {
		t.Errorf("valid comparator rejected: %v", err)
	}
}
