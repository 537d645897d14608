package core

import (
	"fmt"
	"math"
	"math/rand/v2"

	"saiyan/internal/analog"
	"saiyan/internal/dsp"
	"saiyan/internal/lora"
)

// Calibrate prepares the demodulator for a link whose feedback signals
// arrive at rssDBm. It mirrors the prototype's offline procedure
// (Section 4.1): measure the peak envelope amplitude Amax and the envelope
// ripple at this distance, derive U_H = Amax/10^(G/20) and U_L = U_H - U_F,
// and (in ModeFull) render the correlation templates.
//
// The rng seeds the calibration noise; calibration with the same seed is
// deterministic.
func (d *Demodulator) Calibrate(rssDBm float64, rng *rand.Rand) {
	d.CalibrateScalars(rssDBm, rng)
	if d.cfg.Mode == ModeFull {
		d.buildTemplates(rssDBm)
		// Materialize the detection template eagerly so a calibrated
		// demodulator is read-only from here on: Clone relies on this to
		// share templates across concurrent workers without racing the
		// lazy render.
		d.detectionTemplate()
	}
	d.syncFx()
	d.calibrated = true
}

// CalibrateScalars is the first half of Calibrate: it measures the
// envelope's noise baseline and ripple and its peak Amax at rssDBm,
// derives the comparator thresholds and the falling-edge bias, sets them
// and returns them. It renders no template and touches neither the
// fixed-point twin nor the calibrated flag; a receiver that keeps only the
// scalars installs them on a clone with SetCalibration. It draws from rng
// exactly as Calibrate does.
func (d *Demodulator) CalibrateScalars(rssDBm float64, rng *rand.Rand) Calibration {
	p := d.cfg.Params
	fs := d.fsSim

	// Noise-only render: baseline level and ripple of the envelope.
	quiet := make([]float64, int(d.spbSim*4))
	env := d.RenderEnvelope(nil, quiet, math.Inf(-1), rng)
	d.baseline = dsp.Mean(env)
	d.noiseSigma = dsp.StdDev(env)

	// Signal render: a few preamble up-chirps at the calibration RSS, with
	// noise, as a field measurement would see them.
	traj := make([]float64, 0, int(d.spbSim*4))
	one := p.FreqTrajectory(nil, 0, fs)
	for i := 0; i < 4; i++ {
		traj = append(traj, one...)
	}
	sig := d.RenderEnvelope(nil, traj, rssDBm, rng)
	d.amax = dsp.Percentile(sig, 99)

	high := d.baseline + (d.amax-d.baseline)*d.headroom
	// U_F: the envelope fluctuation amplitude. Use the larger of the noise
	// ripple and a fixed fraction of the swing so U_L stays meaningful at
	// high SNR too.
	uf := math.Max(2*d.noiseSigma, 0.25*(d.amax-d.baseline))
	low := high - uf
	// Keep U_L above the baseline ripple so the comparator can reset.
	minLow := d.baseline + d.noiseSigma
	if low < minLow {
		low = minLow
	}
	if low > high {
		low = high
	}
	d.comparator = analog.Comparator[float64]{High: high, Low: low}
	d.peakBias = d.measureDecodeBias(rssDBm)
	return d.Calibration()
}

// Calibration is the scalar outcome of Calibrate: the envelope's noise
// baseline and ripple, its calibrated peak, the comparator thresholds and
// the falling-edge bias. It is a few words, so a receiver that calibrates
// one link over and over can keep it and install it on a clone.
type Calibration struct {
	Baseline, NoiseSigma, Amax float64
	Comparator                 analog.Comparator[float64]
	PeakBias                   float64
}

// Calibration returns the demodulator's current calibration scalars.
func (d *Demodulator) Calibration() Calibration {
	return Calibration{Baseline: d.baseline, NoiseSigma: d.noiseSigma, Amax: d.amax, Comparator: d.comparator, PeakBias: d.peakBias}
}

// SetCalibration installs c and marks the demodulator calibrated. The
// correlation and detection templates are not part of a Calibration and
// stay as they are: on a clone of a Prewarmed master, those rendered at
// the nominal level.
func (d *Demodulator) SetCalibration(c Calibration) {
	d.baseline, d.noiseSigma, d.amax = c.Baseline, c.NoiseSigma, c.Amax
	d.comparator, d.peakBias = c.Comparator, c.PeakBias
	d.syncFx()
	d.calibrated = true
}

// measureDecodeBias quantifies the systematic lag between a chirp's true
// amplitude peak and the comparator's falling edge: the video low-pass
// filter smears the post-peak collapse, so the edge trails the peak by a
// fixed time. The offline calibration absorbs this into the position
// mapping exactly as the prototype's per-distance table would; without the
// correction the narrow decision bins of high coding rates (2^K positions
// per symbol) are systematically missed.
func (d *Demodulator) measureDecodeBias(rssDBm float64) float64 {
	p := d.cfg.Params
	// Mid-alphabet symbols keep both the peak and the post-peak collapse
	// inside one window.
	probe := []int{p.AlphabetSize() / 4, p.AlphabetSize() / 2}
	var sum float64
	var n int
	for _, s := range probe {
		m := p.SymbolValue(s)
		if m == 0 {
			continue
		}
		traj := p.FreqTrajectory(nil, m, d.fsSim)
		env := d.RenderEnvelope(nil, traj, rssDBm, nil)
		bits := d.comparator.Quantize(nil, env)
		tail := -1
		for i := 1; i < len(bits); i++ {
			if bits[i-1] && !bits[i] {
				tail = i - 1
			}
		}
		if tail < 0 {
			continue
		}
		observed := (float64(tail) + 0.5) / float64(len(bits))
		diff := observed - p.PeakFraction(m)
		// Wrap to (-0.5, 0.5].
		if diff > 0.5 {
			diff -= 1
		} else if diff < -0.5 {
			diff += 1
		}
		sum += diff
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// templateStat is one correlation template prepared for the one-pass hot
// path of bestTemplate: the template centered once, tmpl[i]-mean, and its
// zero-mean energy Σ(t-mt)². Both are computed in exactly the order the
// exact two-pass windowCorrelation uses, so the fast path reproduces its
// scores bit for bit.
type templateStat struct {
	centered []float64
	energy   float64
}

// buildTemplates renders the noise-free correlator template for every
// downlink symbol at the correlator rate and prepares each for the
// one-pass hot path of decodeByCorrelation. The stats only apply to
// full-length windows; when the renders come out unequal in length (they
// never do today) the stats are dropped and every window takes the exact
// fallback.
func (d *Demodulator) buildTemplates(rssDBm float64) {
	p := d.cfg.Params
	d.templates = make([][]float64, p.AlphabetSize())
	for s := range d.templates {
		traj := p.FreqTrajectory(nil, p.SymbolValue(s), d.fsSim)
		d.templates[s] = d.RenderCorrEnvelope(nil, traj, rssDBm, nil)
	}
	d.tmplStats = make([]templateStat, len(d.templates))
	for s, tmpl := range d.templates {
		if len(tmpl) == 0 || len(tmpl) != len(d.templates[0]) {
			d.tmplStats = nil
			return
		}
		n := len(tmpl)
		var mt float64
		for i := 0; i < n; i++ {
			mt += tmpl[i]
		}
		mt /= float64(n)
		c := make([]float64, n)
		var et float64
		for i := 0; i < n; i++ {
			c[i] = tmpl[i] - mt
			et += c[i] * c[i]
		}
		d.tmplStats[s] = templateStat{centered: c, energy: et}
	}
}

// Thresholds returns the calibrated comparator (U_H, U_L).
func (d *Demodulator) Thresholds() analog.Comparator[float64] { return d.comparator }

// ErrNotCalibrated is returned by demodulation entry points when Calibrate
// has not been called.
var ErrNotCalibrated = fmt.Errorf("core: demodulator not calibrated; call Calibrate first")

// DemodulatePayload renders a payload-only frequency trajectory through the
// front end and decodes nSymbols downlink symbols. The trajectory must
// start exactly at the first payload symbol (synchronized reception; the
// paper measures BER the same way after preamble lock).
func (d *Demodulator) DemodulatePayload(trajHz []float64, rssDBm float64, nSymbols int, rng *rand.Rand) ([]int, error) {
	if !d.calibrated {
		return nil, ErrNotCalibrated
	}
	render := d.RenderEnvelope
	if d.cfg.Mode == ModeFull {
		render = d.RenderCorrEnvelope
	}
	out := make([]int, nSymbols)
	d.decodePayload(out, render(nil, trajHz, rssDBm, rng))
	return out, nil
}

// decodePayload decodes len(out) payload symbols into out from an
// envelope that starts at the first payload symbol: the correlator-rate
// envelope in ModeFull, the sampler-rate one otherwise. The fixed-point
// datapath quantizes it through the ADC first.
//
//saiyan:hotpath
func (d *Demodulator) decodePayload(out []int, env []float64) {
	switch {
	case d.cfg.Mode == ModeFull && d.fx != nil:
		d.fx.DecodeCorrelation(out, d.fx.Quantize(env))
	case d.cfg.Mode == ModeFull:
		d.decodeByCorrelation(out, env)
	case d.fx != nil:
		d.fx.DecodePeakTracking(out, d.fx.Quantize(env))
	default:
		d.decodeByPeakTracking(out, env)
	}
}

// symbolWindow returns the [lo, hi) sampler-rate indices of payload symbol
// s: its start and the next symbol's.
func (d *Demodulator) symbolWindow(s, decim, n int) (int, int) {
	return d.symbolStart(s, decim, n), d.symbolStart(s+1, decim, n)
}

// symbolStart returns the first sampler-rate index of payload symbol s,
// capped at n, derived from the integer per-symbol sample count the
// trajectory generators use so boundaries never drift.
func (d *Demodulator) symbolStart(s, decim, n int) int {
	ratio := float64(d.spbSimInt) / float64(decim)
	return min(int(math.Round(float64(s)*ratio)), n)
}

// decodeByPeakTracking implements the Section 2.2 decoder: quantize the
// envelope with the double-threshold comparator, find each symbol window's
// peak marker with analog.PeakEdges, and map its position to a chirp
// value, one symbol per element of out. fxp.DecodePeakTracking is the
// integer twin on the same classifier.
//
//saiyan:hotpath
func (d *Demodulator) decodeByPeakTracking(out []int, env []float64) {
	p := d.cfg.Params
	nSymbols := len(out)
	d.scratchBit = d.comparator.Quantize(d.scratchBit, env)
	if cap(d.scratchBounds) < nSymbols+1 {
		d.scratchBounds = make([]int, nSymbols+1) //lint:allow hotalloc amortized: runs only on scratch growth
	}
	bounds := d.scratchBounds[:nSymbols+1]
	for s := range bounds {
		bounds[s], _ = d.symbolWindow(s, d.cfg.Oversample, len(d.scratchBit))
	}
	d.scratchEdges = analog.PeakEdges(d.scratchEdges, d.scratchBit, bounds)
	clear(out)
	for s, e := range d.scratchEdges {
		var frac float64
		switch {
		case e.Own:
			frac = (float64(e.Edge) + 0.5) / float64(e.Len)
		case e.Boundary:
			frac = 1 // peak rides the symbol boundary: position ~0
		default:
			// No peak found: erasure. Decode as symbol 0; the BER
			// accounting charges it fully.
			continue
		}
		out[s] = p.NearestSymbol(p.PositionFromPeak(frac - d.peakBias))
	}
}

// decodeByCorrelation implements Section 3.2: normalized cross-correlation
// of each symbol window against the per-symbol templates, one symbol per
// element of out. Each window bound is computed once, since a symbol ends
// where the next begins. Four consecutive full-length windows share one
// pass for their means (windowMeans4) before each is ranked; the rest go
// through bestTemplate. Either way every score, and so every symbol, is
// bestTemplate's bit for bit.
//
//saiyan:hotpath
func (d *Demodulator) decodeByCorrelation(out []int, env []float64) {
	decim := d.cfg.Oversample / d.cfg.CorrOversample
	n := 0 // full window length; 0 sends every window to bestTemplate
	if d.tmplStats != nil {
		n = len(d.tmplStats[0].centered)
	}
	var lo [5]int // symbol starts of a group of up to four, and its end
	next := d.symbolStart(0, decim, len(env))
	for s := 0; s < len(out); s += 4 {
		g := min(4, len(out)-s)
		lo[0] = next
		full := n > 0 && g == 4
		for k := 1; k <= g; k++ {
			lo[k] = d.symbolStart(s+k, decim, len(env))
			full = full && lo[k]-lo[k-1] >= n
		}
		next = lo[g]
		if !full {
			for k := range g {
				out[s+k] = 0
				if lo[k] < lo[k+1] {
					out[s+k], _ = d.bestTemplate(env[lo[k]:lo[k+1]])
				}
			}
			continue
		}
		mw := windowMeans4(env, lo[:4], n)
		for k, m := range mw {
			out[s+k], _ = d.rankWindow(env[lo[k]:lo[k]+n], m)
		}
	}
}

// windowMeans4 returns the means of the four n-sample windows of env that
// start at lo[0..3], summed in one pass, each in its own accumulator and in
// index order, as bestTemplate sums one.
//
//saiyan:hotpath
func windowMeans4(env []float64, lo []int, n int) [4]float64 {
	w0 := env[lo[0] : lo[0]+n]
	w1 := env[lo[1] : lo[1]+n][:len(w0)]
	w2 := env[lo[2] : lo[2]+n][:len(w0)]
	w3 := env[lo[3] : lo[3]+n][:len(w0)]
	var m0, m1, m2, m3 float64
	for i := range w0 {
		m0 += w0[i]
		m1 += w1[i]
		m2 += w2[i]
		m3 += w3[i]
	}
	fn := float64(n)
	return [4]float64{m0 / fn, m1 / fn, m2 / fn, m3 / fn}
}

// bestTemplate ranks every template against one symbol window and
// returns the first best symbol with its score. A full-length window
// (cut to the template length) takes the fast path: one pass for its
// mean, then rankWindow. A truncated edge window, shorter than the
// template, takes windowCorrelation itself.
//
//saiyan:hotpath
func (d *Demodulator) bestTemplate(win []float64) (int, float64) {
	st := d.tmplStats
	if st == nil || len(win) < len(d.templates[0]) {
		best, bestScore := 0, math.Inf(-1)
		for sym, tmpl := range d.templates {
			if score := windowCorrelation(win, tmpl); score > bestScore {
				best, bestScore = sym, score
			}
		}
		return best, bestScore
	}
	win = win[:len(d.templates[0])]
	var mw float64
	for _, v := range win {
		mw += v
	}
	return d.rankWindow(win, mw/float64(len(win)))
}

// rankWindow scores a full-length window of mean mw against every
// template and returns the first best symbol with its score. It makes one
// pass per group of up to four templates that carries the window's
// zero-mean energy and each template's dot product in separate
// accumulators, against the templates centered by buildTemplates: a group
// of one or two templates (the whole bank at K = 1) takes dotPair, a
// larger one dotGroup, since each kernel is the faster at its width (see
// BenchmarkBestTemplate). A short group repeats its last template; the
// repeats are not ranked. Every accumulator sums in the order
// windowCorrelation does, so the scores are bit-identical to it.
//
//saiyan:hotpath
func (d *Demodulator) rankWindow(win []float64, mw float64) (int, float64) {
	st := d.tmplStats
	best, bestScore := 0, math.Inf(-1)
	last := len(st) - 1
	for g := 0; g <= last; g += 4 {
		n := min(4, len(st)-g)
		var ew float64
		var dots [4]float64
		if n <= 2 {
			ew, dots[0], dots[1] = dotPair(win, mw, st[g].centered, st[min(g+1, last)].centered)
		} else {
			ew, dots[0], dots[1], dots[2], dots[3] = dotGroup(win, mw, st[g].centered, st[g+1].centered,
				st[g+2].centered, st[min(g+3, last)].centered)
		}
		for k, dot := range dots[:n] {
			score := 0.0
			if et := st[g+k].energy; ew != 0 && et != 0 {
				score = dot / math.Sqrt(ew*et)
			}
			if score > bestScore {
				best, bestScore = g+k, score
			}
		}
	}
	return best, bestScore
}

// dotPair makes one pass over a window: with a = win[i]-mw it sums a² and
// a·c[i] for two centered templates, each in its own accumulator.
//
//saiyan:hotpath
func dotPair(win []float64, mw float64, c0, c1 []float64) (ew, d0, d1 float64) {
	c0, c1 = c0[:len(win)], c1[:len(win)]
	for i, v := range win {
		a := v - mw
		ew += a * a
		d0 += a * c0[i]
		d1 += a * c1[i]
	}
	return ew, d0, d1
}

// dotGroup is dotPair for four centered templates.
//
//saiyan:hotpath
func dotGroup(win []float64, mw float64, c0, c1, c2, c3 []float64) (ew, d0, d1, d2, d3 float64) {
	n := len(win)
	c0, c1, c2, c3 = c0[:n], c1[:n], c2[:n], c3[:n]
	for i, v := range win {
		a := v - mw
		ew += a * a
		d0 += a * c0[i]
		d1 += a * c1[i]
		d2 += a * c2[i]
		d3 += a * c3[i]
	}
	return ew, d0, d1, d2, d3
}

// windowCorrelation computes the zero-mean cosine similarity between a
// window and a template of (approximately) the same length.
func windowCorrelation(win, tmpl []float64) float64 {
	n := len(win)
	if len(tmpl) < n {
		n = len(tmpl)
	}
	if n == 0 {
		return 0
	}
	var mw, mt float64
	for i := 0; i < n; i++ {
		mw += win[i]
		mt += tmpl[i]
	}
	mw /= float64(n)
	mt /= float64(n)
	var dot, ew, et float64
	for i := 0; i < n; i++ {
		a := win[i] - mw
		b := tmpl[i] - mt
		dot += a * b
		ew += a * a
		et += b * b
	}
	if ew == 0 || et == 0 {
		return 0
	}
	return dot / math.Sqrt(ew*et)
}

// ProcessFrame runs the complete tag pipeline on a downlink frame arriving
// at rssDBm: render the whole frame (preamble + sync + payload), detect the
// preamble, skip 2.25 symbol times, and decode the payload. It returns the
// decoded symbols and whether the preamble was found. Callers demodulating
// many frames can avoid the per-frame render allocations with
// ProcessFrameScratch.
func (d *Demodulator) ProcessFrame(frame *lora.Frame, rssDBm float64, rng *rand.Rand) ([]int, bool, error) {
	return d.ProcessFrameScratch(frame, rssDBm, rng, nil)
}
