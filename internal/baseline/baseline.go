// Package baseline implements the two state-of-the-art systems the paper
// compares against — PLoRa [40] and Aloba [23] — plus the conventional
// envelope-detection receiver they are built on.
//
// Both systems can *detect* LoRa packets on a tag but cannot demodulate the
// payload (Section 5.1.3): PLoRa cross-correlates the envelope against the
// packet's energy profile; Aloba feeds the envelope through a moving-average
// filter and thresholds the preamble's RSSI pattern. Their tags use a plain
// envelope detector with no SAW filter, no LNA, and no cyclic-frequency
// shifting, which is what limits their detection range.
//
// The package also models both systems' backscatter *uplinks* (tag to
// receiver) for the Figure 2 motivation experiment and the Figure 26/27
// case studies: PLoRa reflects ambient LoRa chirps (CSS, decoded by a
// standard dechirp receiver), while Aloba on-off keys on top of ambient
// chirps.
package baseline

import (
	"math"
	"math/rand/v2"

	"saiyan/internal/analog"
	"saiyan/internal/dsp"
	"saiyan/internal/lora"
	"saiyan/internal/radio"
	"saiyan/internal/sim"
)

// ConventionalReceiver models the tag-side envelope-detection front end
// both baselines share: antenna -> passive envelope detector -> amplifier.
// With no SAW filter the LoRa chirp arrives as a *constant* envelope (the
// chirp is frequency modulated), so all a tag can see is packet energy.
type ConventionalReceiver struct {
	// NoiseFigureDB is the effective front-end noise figure. Passive
	// envelope detectors with no RF gain are very noisy; the default is
	// calibrated so the detection sensitivity lands near the paper's
	// -55.8 dBm conventional-detector reference ([27], Section 5.2.1).
	NoiseFigureDB float64
	// SampleRateHz is the RSSI sampling rate of the tag MCU.
	SampleRateHz float64
	Envelope     analog.EnvelopeDetector
}

// DefaultConventionalReceiver returns the calibrated front end.
func DefaultConventionalReceiver() ConventionalReceiver {
	return ConventionalReceiver{
		NoiseFigureDB: 36,
		SampleRateHz:  50e3,
		Envelope:      analog.DefaultEnvelopeDetector(),
	}
}

// snrAmplitude mirrors core.Demodulator: normalized signal amplitude for
// unit-power front-end noise.
func (c ConventionalReceiver) snrAmplitude(rssDBm float64) float64 {
	if math.IsInf(rssDBm, -1) {
		return 0
	}
	noiseDBm := -174.0 + c.NoiseFigureDB + 10*math.Log10(c.SampleRateHz)
	return math.Sqrt(dsp.FromDB(rssDBm - noiseDBm))
}

// RenderEnvelope produces n RSSI samples for a signal that is present
// according to the on mask (nil means always on) at the given RSS.
func (c ConventionalReceiver) RenderEnvelope(n int, on []bool, rssDBm float64, rng *rand.Rand) []float64 {
	amp := c.snrAmplitude(rssDBm)
	x := make([]complex128, n)
	for i := range x {
		if on == nil || (i < len(on) && on[i]) {
			x[i] = complex(amp, 0)
		}
	}
	dsp.AddComplexNoise(x, 1, rng)
	y := c.Envelope.Detect(nil, x)
	c.Envelope.AddBasebandImpairments(y, nil, c.SampleRateHz, rng)
	return y
}

// packetMask builds the on/off energy profile the detectors look for: off
// for lead samples, on for the packet duration.
func packetMask(lead, on, total int) []bool {
	m := make([]bool, total)
	for i := lead; i < lead+on && i < total; i++ {
		m[i] = true
	}
	return m
}

// Detector is a tag-side packet detector operating on RSSI envelopes.
type Detector interface {
	// Name is the system name as the paper spells it.
	Name() string
	// Detect reports whether a packet is present in the envelope.
	Detect(env []float64) bool
	// Prepare lets the detector calibrate against a noise-only envelope.
	Prepare(noise []float64)
}

// DetectionProbability measures P(detect) for a detector at the given RSS:
// each trial renders lead-in noise, a packet of packetSamples energy, and a
// tail, then runs the detector. It also measures the false-positive rate on
// noise-only envelopes and returns detections that also occur on noise as
// failures (a detector that always fires is useless).
func DetectionProbability(c ConventionalReceiver, det Detector, rssDBm float64, packetDur float64, trials int, rng *rand.Rand) float64 {
	on := int(packetDur * c.SampleRateHz)
	lead := on / 2
	total := 2*lead + on
	// Calibrate on noise.
	det.Prepare(c.RenderEnvelope(total, packetMask(0, 0, total), math.Inf(-1), rng))
	hits := 0
	for i := 0; i < trials; i++ {
		env := c.RenderEnvelope(total, packetMask(lead, on, total), rssDBm, rng)
		if det.Detect(env) {
			hits++
		}
	}
	return float64(hits) / float64(trials)
}

// DetectionRange finds the maximum distance at which the detector fires
// with probability >= probTarget over the given link budget, bisecting
// 1-800 m geometrically to 2% with sim.BisectRange. The packet duration
// is that of a default LoRa frame preamble at SF7/BW500.
func DetectionRange(c ConventionalReceiver, det Detector, budget radio.LinkBudget, probTarget float64, trials int, seed uint64) float64 {
	p := lora.DefaultParams()
	dur := (lora.PreambleUpchirps + lora.SyncSymbols) * p.SymbolDuration()
	okAt := func(d float64) (bool, error) {
		rng := dsp.NewRand(seed, math.Float64bits(d))
		return DetectionProbability(c, det, budget.RSSDBm(d), dur, trials, rng) >= probTarget, nil
	}
	r, _ := sim.BisectRange(okAt, 1, 800, 0.02) // okAt never fails
	return r
}
