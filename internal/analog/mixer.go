package analog

import "math"

// ClockTable returns one period of a clock tone running at exactly
// 1/period of the sample rate: entry i is cos(2*pi*i/period + phase), and
// the tone at sample n is entry n mod period. The cyclic-frequency-shifting
// circuit mixes with such tones, so a table lookup replaces a per-sample
// cosine without approximating the phase. The hardware prototype uses a
// micro-power LTC6907 whose output is copied through a transmission delay
// line to obtain the second clock (Section 3.1, Eq. (5)); phase models an
// imperfectly tuned delay line (0 when tuned).
func ClockTable(period int, phase float64) []float64 {
	t := make([]float64, period)
	for i := range t {
		t[i] = math.Cos(2*math.Pi*float64(i)/float64(period) + phase)
	}
	return t
}

// IFAmplifier is the low-power transistor amplifier (2N222 in the
// prototype) that boosts the intermediate-frequency signal between the two
// mixers. It is a plain scalar gain: the IF band-pass supplies the
// frequency selectivity, and the demodulator folds both into its fused IF
// filter.
type IFAmplifier struct {
	GainDB float64
}

// DefaultIFAmplifier returns the prototype's ~20 dB IF gain.
func DefaultIFAmplifier() IFAmplifier { return IFAmplifier{GainDB: 20} }

// Gain returns the linear amplitude gain.
func (a IFAmplifier) Gain() float64 { return math.Pow(10, a.GainDB/20) }
