package analog

import "math"

// Oscillator generates the clock tones of the cyclic-frequency-shifting
// circuit. The hardware prototype uses a micro-power LTC6907 whose output is
// copied through a transmission delay line to obtain the second clock
// (Section 3.1, Eq. (5)); PhaseError models an imperfectly tuned delay line.
type Oscillator struct {
	FreqHz     float64
	PhaseError float64 // radians of CLKout misalignment (0 when tuned)
}

// MixReal multiplies a real series by the oscillator tone in place
// (output mixer / down-conversion to baseband).
func (o Oscillator) MixReal(x []float64, sampleRate, phase float64) {
	w := 2 * math.Pi * o.FreqHz / sampleRate
	for i := range x {
		x[i] *= math.Cos(w*float64(i) + phase)
	}
}

// MixComplex multiplies the RF complex envelope by the real clock tone in
// place (input mixer): in passband terms this splits the signal into the
// two sidebands S(F±Δf) of Figure 9(b).
func (o Oscillator) MixComplex(x []complex128, sampleRate, phase float64) {
	w := 2 * math.Pi * o.FreqHz / sampleRate
	for i := range x {
		c := math.Cos(w*float64(i) + phase)
		x[i] *= complex(c, 0)
	}
}

// IFAmplifier is the low-power transistor amplifier (2N222 in the
// prototype) that boosts the intermediate-frequency signal between the two
// mixers. Frequency selectivity is applied separately via a band-pass FIR
// so the gain here is a plain scalar.
type IFAmplifier struct {
	GainDB float64
}

// DefaultIFAmplifier returns the prototype's ~20 dB IF gain.
func DefaultIFAmplifier() IFAmplifier { return IFAmplifier{GainDB: 20} }

// Apply scales the series by the linear amplitude gain in place.
func (a IFAmplifier) Apply(x []float64) {
	g := math.Pow(10, a.GainDB/20)
	for i := range x {
		x[i] *= g
	}
}
