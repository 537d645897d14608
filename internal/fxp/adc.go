package fxp

import (
	"fmt"
	"math"
)

// ADC is the quantizer at the analog/digital boundary: it converts the
// analog sampler's float64 envelope into left-aligned Q1.15 codes at a
// configurable bit depth. The prototype's MCU reads the comparator through a
// GPIO and the correlator envelope through its SAR ADC; this models the
// latter with the two knobs that matter — resolution and full-scale range.
//
// Codes are the non-negative half of Q1.15: input 0 maps to code 0,
// FullScale maps to the top code (2^Bits-1) << (15-Bits), inputs outside
// [0, FullScale] saturate (the converter rails, it does not wrap), and NaN
// reads as 0. Left alignment keeps every bit depth on the same Q1.15 scale,
// so the decoder's arithmetic is depth-independent.
//
// Rounding is to the nearest code, halves away from zero (math.Round) on
// the scaled value v/FullScale*top. Quantize computes it without
// math.Round, exactly: a scaled value x in [0.5, top) has
// int(x+0.5) == math.Round(x), because adding 0.5 either stays in x's
// binade, where 0.5 is a multiple of x's ULP and the sum is exact, or
// crosses into the next one, which starts at the integer both roundings
// give. Below 0.5 the code is 0 — by a compare, since the largest float64
// below 0.5 plus 0.5 rounds up to 1.
type ADC struct {
	// Bits is the converter resolution, 2..15.
	Bits int
	// FullScale is the envelope level mapped to the top code; calibration
	// sets it above the observed peak amplitude so signal excursions keep
	// headroom.
	FullScale float64
}

// NewADC validates the bit depth and full-scale range.
func NewADC(bits int, fullScale float64) (ADC, error) {
	a := ADC{Bits: bits, FullScale: fullScale}
	if err := a.validate(); err != nil {
		return ADC{}, err
	}
	return a, nil
}

func (a ADC) validate() error {
	if a.Bits < 2 || a.Bits > 15 {
		return fmt.Errorf("fxp: ADC bit depth %d outside [2, 15]", a.Bits)
	}
	if !(a.FullScale > 0) {
		return fmt.Errorf("fxp: ADC full scale %g must be positive", a.FullScale)
	}
	return nil
}

// Levels is the number of distinct codes, 2^Bits.
func (a ADC) Levels() int { return 1 << a.Bits }

// Code quantizes one envelope value: scale to the code range, round to
// nearest, saturate at the rails, left-align to Q1.15.
func (a ADC) Code(v float64) Q15 {
	top := a.Levels() - 1
	scaled := v / a.FullScale * float64(top)
	if math.IsNaN(scaled) || scaled <= 0 {
		return 0
	}
	if scaled >= float64(top) {
		return Q15(top) << (15 - a.Bits) // rails, including +Inf
	}
	return Q15(int(math.Round(scaled))) << (15 - a.Bits)
}

// Quantize converts an envelope window into Q1.15 codes, reusing dst
// (append contract: grown as needed and returned). Each code equals
// Code's; the scale, the shift and the rail code are hoisted out of the
// loop, and the rounding is the exact compare-and-add form the type
// comment derives.
//
//saiyan:hotpath
func (a ADC) Quantize(dst []Q15, env []float64) []Q15 {
	if cap(dst) < len(env) {
		dst = make([]Q15, len(env)) //lint:allow hotalloc amortized: callers hand the returned buffer back in
	}
	dst = dst[:len(env)]
	top := a.Levels() - 1
	topf, fs := float64(top), a.FullScale
	shift := uint(15-a.Bits) & 15 // Bits is 2..15; the mask drops the wide-shift guard
	for i, v := range env {
		dst[i] = Q15(roundCode(v/fs*topf, top)) << shift
	}
	return dst
}

// roundCode is math.Round of a scaled envelope value, saturated to
// [0, top], NaN reading 0: int(x+0.5) is exact on [0.5, top), x >= top is
// the rail, and !(x >= 0.5) covers NaN, x <= 0 and (0, 0.5), whose Round
// is 0. The conversion runs first and the two compares overwrite it, so
// the compiler emits conditional moves, not branches; Go defines no value
// for an out-of-range conversion (NaN, ±Inf, huge x) but does not trap,
// and both overwrites cover every such x.
func roundCode(x float64, top int) int {
	c := int(x + 0.5)
	if x >= float64(top) {
		c = top // the rail, including +Inf
	}
	if !(x >= 0.5) {
		c = 0
	}
	return c
}
