package core

import (
	"math"
	"sort"

	"saiyan/internal/analog"
	"saiyan/internal/dsp"
	"saiyan/internal/lora"
)

// Automatic gain control: the paper configures U_H/U_L from an offline
// per-distance mapping table and names AGC as future work ("one could
// leverage an Automatic Gain Control to adapt the power gain
// automatically", Section 4.1). This file implements that extension: the
// tag derives its thresholds from the statistics of the incoming frame's
// own preamble, so no calibration table is needed.

// AGCConfig tunes the online threshold estimator.
type AGCConfig struct {
	// PeakPercentile estimates Amax from the envelope (robust to spikes).
	PeakPercentile float64
	// FloorPercentile estimates the baseline level.
	FloorPercentile float64
}

// DefaultAGCConfig returns estimator settings that track the offline
// calibration closely across the link budget's working range.
func DefaultAGCConfig() AGCConfig {
	return AGCConfig{PeakPercentile: 98, FloorPercentile: 25}
}

// AutoCalibrate derives comparator thresholds, the noise baseline, and (in
// ModeFull) the correlation templates from an observed envelope — normally
// the first preamble symbols of the frame being received. It marks the
// demodulator calibrated.
//
// Template shapes are RSS independent (the chain downstream of the square
// law is linear, and the correlation decoder normalizes), so templates are
// rendered once at a nominal level. The envelope is copied and sorted
// once, into receiver scratch, for all three percentile reads.
//
//saiyan:hotpath
func (d *Demodulator) AutoCalibrate(env []float64, agc AGCConfig) {
	if agc.PeakPercentile <= 0 || agc.PeakPercentile > 100 {
		agc = DefaultAGCConfig()
	}
	d.scratchSort = append(d.scratchSort[:0], env...)
	sorted := d.scratchSort
	sort.Float64s(sorted)
	peak := dsp.SortedPercentile(sorted, agc.PeakPercentile)
	floor := dsp.SortedPercentile(sorted, agc.FloorPercentile)
	if floor > peak {
		floor = peak
	}
	d.baseline = floor
	d.amax = peak
	// Noise scale: spread of the lower half of the envelope, where only
	// the band-bottom response plus noise lives.
	low := dsp.SortedPercentile(sorted, 45)
	d.noiseSigma = math.Max((low-floor)/0.6745, 1e-12) // MAD-style robust sigma

	headroom := math.Pow(10, -d.cfg.ThresholdGapDB/20)
	high := floor + (peak-floor)*headroom
	uf := math.Max(2*d.noiseSigma, 0.25*(peak-floor))
	lowTh := high - uf
	minLow := floor + d.noiseSigma
	if lowTh < minLow {
		lowTh = minLow
	}
	if lowTh > high {
		lowTh = high
	}
	d.comparator = analog.Comparator[float64]{High: high, Low: lowTh}
	d.peakBias = d.nominalBias()

	if d.cfg.Mode == ModeFull && d.templates == nil {
		d.buildTemplates(templateNominalRSS)
	}
	d.syncFx()
	d.calibrated = true
}

// nominalBias measures the falling-edge lag once at a nominal level with
// thresholds derived the same relative way, and caches it. The lag is a
// filter property (fixed delay in samples), so the nominal measurement
// transfers across signal levels.
func (d *Demodulator) nominalBias() float64 {
	if d.biasCached {
		return d.cachedBias
	}
	saved := d.comparator
	p := d.cfg.Params
	traj := p.FreqTrajectory(nil, 0, d.fsSim)
	env := d.RenderEnvelope(nil, traj, templateNominalRSS, nil)
	floor := dsp.Min(env)
	peak := dsp.Max(env)
	headroom := math.Pow(10, -d.cfg.ThresholdGapDB/20)
	high := floor + (peak-floor)*headroom
	low := high - 0.25*(peak-floor)
	d.comparator = analog.Comparator[float64]{High: high, Low: low}
	d.cachedBias = d.measureDecodeBias(templateNominalRSS)
	d.biasCached = true
	d.comparator = saved
	return d.cachedBias
}

// templateNominalRSS is the level used for RSS-independent template
// rendering.
const templateNominalRSS = -40.0

// autoBootstrap derives comparator thresholds from the leading half of the
// preamble of an observed envelope via AutoCalibrate.
func (d *Demodulator) autoBootstrap(env []float64, agc AGCConfig) {
	boot := int(math.Round(d.spbSamp * lora.PreambleUpchirps / 2))
	if boot > len(env) {
		boot = len(env)
	}
	d.AutoCalibrate(env[:boot], agc)
}
