package dsp

import (
	"math"
	"math/rand/v2"
)

// NewRand returns a deterministic PRNG seeded from the two words. Every
// stochastic component in the simulator draws from a NewRand stream so runs
// are reproducible bit-for-bit.
func NewRand(seed1, seed2 uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed1, seed2))
}

// AddWhiteNoise adds zero-mean real Gaussian noise with the given standard
// deviation to x in place.
func AddWhiteNoise(x []float64, sigma float64, rng *rand.Rand) {
	if sigma <= 0 {
		return
	}
	for i := range x {
		x[i] += sigma * rng.NormFloat64()
	}
}

// AddComplexNoise adds circularly symmetric complex Gaussian noise with
// total power noisePower (variance split evenly between I and Q) to x in
// place.
func AddComplexNoise(x []complex128, noisePower float64, rng *rand.Rand) {
	if noisePower <= 0 {
		return
	}
	sigma := math.Sqrt(noisePower / 2)
	for i := range x {
		x[i] += complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
	}
}

// PinkNoise fills dst with 1/f (flicker) noise of approximately unit
// variance using Kellet's three-pole IIR pinking filter driven by white
// Gaussian noise, then returns dst. Unlike octave-stacking generators, the
// IIR spectrum keeps falling as 1/f up to Nyquist, which matters here: the
// cyclic-frequency-shifting analysis depends on how little flicker power
// leaks into the intermediate-frequency band. Flicker noise models the
// low-frequency excess noise that envelope detectors add at baseband
// (paper Section 3.1).
func PinkNoise(dst []float64, rng *rand.Rand) []float64 {
	var b0, b1, b2 float64
	// Kellet's "economy" coefficients; the 1/f approximation holds from
	// ~fs/4000 up to fs/2, which covers every band the simulator uses.
	// The final scale normalizes the output to ~unit variance for a unit
	// Gaussian input (measured).
	const scale = 1 / 2.55
	for i := range dst {
		w := rng.NormFloat64()
		b0 = 0.99765*b0 + w*0.0990460
		b1 = 0.96300*b1 + w*0.2965164
		b2 = 0.57000*b2 + w*1.0526913
		dst[i] = (b0 + b1 + b2 + w*0.1848) * scale
	}
	return dst
}

// ComplexPower returns the mean |x|^2 of a complex series.
func ComplexPower(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	acc := 0.0
	for _, v := range x {
		acc += real(v)*real(v) + imag(v)*imag(v)
	}
	return acc / float64(len(x))
}
