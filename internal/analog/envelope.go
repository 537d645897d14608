package analog

import (
	"math"
	"math/rand/v2"

	"saiyan/internal/dsp"
)

// EnvelopeDetector is a square-law detector: y = k*|x|^2 for the RF complex
// envelope x. Squaring reproduces the paper's Eq. (4) exactly: the output
// contains the desired |s|^2 term plus 2*Re(s*conj(n)) signal-noise mixing
// and |n|^2 noise self-mixing, which is why weak signals suffer
// disproportionately (the 30 dB sensitivity penalty of envelope-detection
// receivers [27]).
//
// On top of the squaring, physical detectors add baseband impairments that
// only exist *after* down-conversion: a DC offset and 1/f flicker noise.
// The cyclic-frequency-shifting circuit exists to escape them (Section 3.1).
type EnvelopeDetector struct {
	ScaleK float64 // attenuation factor k of Eq. (4)

	// Baseband impairments, in normalized envelope units (the RF noise at
	// the detector input has unit power, so |n|^2 averages 1).
	DCOffset      float64
	FlickerSigma  float64 // std dev of added 1/f noise
	BasebandSigma float64 // extra white baseband noise (video resistor etc.)

	// FlickerCornerHz is the pole above which the flicker spectrum falls
	// off faster than 1/f (one extra pole). Detector flicker and bias
	// drift concentrate at low frequency; the corner controls how much
	// leaks into the intermediate-frequency band and therefore how much of
	// the paper's 11 dB cyclic-frequency-shifting gain is achievable.
	FlickerCornerHz float64
}

// DefaultEnvelopeDetector returns the calibrated detector model. The
// flicker and DC terms are set so the vanilla chain loses ~11 dB of
// effective SNR versus the cyclic-frequency-shifted chain, matching the
// paper's measured gain (the IF band-pass filter passes only the small 1/f
// tail that falls inside the IF band).
func DefaultEnvelopeDetector() EnvelopeDetector {
	return EnvelopeDetector{
		ScaleK:          1,
		DCOffset:        150,
		FlickerSigma:    160,
		BasebandSigma:   1.5,
		FlickerCornerHz: 30e3,
	}
}

// Detect writes k*|x|^2 into dst without baseband impairments (the caller
// decides whether the signal has been shifted away from DC first) and
// returns dst.
func (e EnvelopeDetector) Detect(dst []float64, x []complex128) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	k := e.ScaleK
	if k == 0 {
		k = 1
	}
	for i, v := range x {
		dst[i] = k * (real(v)*real(v) + imag(v)*imag(v))
	}
	return dst
}

// AddBasebandImpairments adds the DC offset, flicker noise, and white
// baseband noise to an envelope series (sampled at sampleRateHz) in place.
// Call it after Detect; the super-Saiyan chain applies it before the IF
// band-pass filter, which then strips most of it — exactly the mechanism of
// Figure 9.
//
// The flicker noise is generated into scratch, which is grown to len(y) if
// needed and returned so callers rendering many series can keep one buffer
// (pass nil to let it allocate). scratch must not overlap y.
func (e EnvelopeDetector) AddBasebandImpairments(y, scratch []float64, sampleRateHz float64, rng *rand.Rand) []float64 {
	if e.FlickerSigma > 0 {
		if cap(scratch) < len(y) {
			scratch = make([]float64, len(y))
		}
		pink := dsp.PinkNoise(scratch[:len(y)], rng)
		if e.FlickerCornerHz > 0 && sampleRateHz > 2*e.FlickerCornerHz {
			// One-pole roll-off above the flicker corner, renormalized so
			// the total sigma stays at the configured value (the corner
			// reshapes the spectrum, it does not remove noise power).
			alpha := math.Exp(-2 * math.Pi * e.FlickerCornerHz / sampleRateHz)
			state := 0.0
			for i, v := range pink {
				state = alpha*state + (1-alpha)*v
				pink[i] = state
			}
			if sd := dsp.StdDev(pink); sd > 0 {
				inv := 1 / sd
				for i := range pink {
					pink[i] *= inv
				}
			}
		}
		for i := range y {
			y[i] += e.FlickerSigma * pink[i]
		}
	}
	if e.BasebandSigma > 0 {
		dsp.AddWhiteNoise(y, e.BasebandSigma, rng)
	}
	if e.DCOffset != 0 {
		for i := range y {
			y[i] += e.DCOffset
		}
	}
	return scratch
}
