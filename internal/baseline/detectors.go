package baseline

import (
	"math"

	"saiyan/internal/dsp"
)

// PLoRaDetector reproduces PLoRa's packet detection: cross-correlate the
// RSSI envelope against the expected packet energy profile (a step that
// stays high for the preamble duration). Correlating over the whole
// preamble integrates out noise, which is why the reproduction's PLoRa
// detects farther than its Aloba. Which baseline the paper puts ahead is
// an open ambiguity. Figure 21's outdoor baseline ranges are 42.4 m and
// 30.6 m, and the repository reads them both ways:
// TestDetectionRangesMatchPaperOrdering takes 42.4 m as PLoRa's, while the
// fig21 experiment pairs its "Saiyan vs Aloba vs PLoRa" title with
// "148.6/42.4/30.6 m", which makes 42.4 m Aloba's.
type PLoRaDetector struct {
	// TemplateSamples is the length of the on-period template.
	TemplateSamples int
	// Threshold is the minimum normalized correlation.
	Threshold float64

	baselineLevel float64
	noiseSigma    float64
}

// NewPLoRaDetector builds a detector for a packet of the given duration at
// the receiver's sampling rate.
func NewPLoRaDetector(packetDur, sampleRateHz float64) *PLoRaDetector {
	n := int(packetDur * sampleRateHz)
	if n < 8 {
		n = 8
	}
	return &PLoRaDetector{TemplateSamples: n, Threshold: 0.55}
}

// Name implements Detector.
func (p *PLoRaDetector) Name() string { return "PLoRa" }

// Prepare implements Detector.
func (p *PLoRaDetector) Prepare(noise []float64) {
	p.baselineLevel = dsp.Mean(noise)
	p.noiseSigma = dsp.StdDev(noise)
}

// Detect implements Detector: slide a step template (half off, half on)
// across the envelope and fire on a strong normalized correlation that also
// clears the energy floor.
func (p *PLoRaDetector) Detect(env []float64) bool {
	half := p.TemplateSamples / 2
	tmpl := make([]float64, p.TemplateSamples+half)
	for i := half; i < len(tmpl); i++ {
		tmpl[i] = 1
	}
	if len(env) < len(tmpl) {
		return false
	}
	// The first maximum over all lags, as dsp.Argmax would pick it.
	hc, norm := dsp.CenterTemplate(tmpl)
	var ncc dsp.SlidingNCC
	lag, peak := 0, 0.0
	for l := range ncc.Reset(env, hc, norm) {
		if v := ncc.Next(); l == 0 || v > peak {
			lag, peak = l, v
		}
	}
	if peak < p.Threshold {
		return false
	}
	// Energy check: the correlated on-window must sit above the noise
	// floor by a margin, or pure low-frequency drift could fire.
	onStart := lag + half
	onEnd := onStart + p.TemplateSamples
	if onEnd > len(env) {
		onEnd = len(env)
	}
	mean := dsp.Mean(env[onStart:onEnd])
	n := float64(onEnd - onStart)
	if n < 1 {
		return false
	}
	return mean > p.baselineLevel+4*p.noiseSigma/math.Sqrt(n)
}

// AlobaDetector reproduces Aloba's packet detection: a moving-average
// filter over the RSSI stream followed by a threshold on the smoothed
// level. Without matched-filter integration it needs a higher
// instantaneous SNR than PLoRa, hence the shorter range.
type AlobaDetector struct {
	// Window is the moving-average width in samples.
	Window int
	// Sigmas is the detection threshold above the noise baseline.
	Sigmas float64
	// HoldSamples is how long the smoothed level must stay high.
	HoldSamples int

	baselineLevel float64
	noiseSigma    float64
}

// NewAlobaDetector builds the detector for the given packet duration.
func NewAlobaDetector(packetDur, sampleRateHz float64) *AlobaDetector {
	n := int(packetDur * sampleRateHz)
	w := n / 16
	if w < 2 {
		w = 2
	}
	return &AlobaDetector{Window: w, Sigmas: 6, HoldSamples: n / 2}
}

// Name implements Detector.
func (a *AlobaDetector) Name() string { return "Aloba" }

// Prepare implements Detector.
func (a *AlobaDetector) Prepare(noise []float64) {
	sm := dsp.MovingAverage(nil, noise, a.Window)
	a.baselineLevel = dsp.Mean(sm)
	a.noiseSigma = dsp.StdDev(sm)
}

// Detect implements Detector.
func (a *AlobaDetector) Detect(env []float64) bool {
	sm := dsp.MovingAverage(nil, env, a.Window)
	thresh := a.baselineLevel + a.Sigmas*a.noiseSigma
	run := 0
	for _, v := range sm {
		if v > thresh {
			run++
			if run >= a.HoldSamples {
				return true
			}
		} else {
			run = 0
		}
	}
	return false
}
