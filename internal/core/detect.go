package core

import (
	"math"

	"saiyan/internal/dsp"
	"saiyan/internal/lora"
)

// Preamble detection parameters. The LoRa preamble repeats ten identical
// up-chirps, so the SAW-transformed envelope carries ten amplitude peaks
// spaced exactly one symbol apart — a signature noise rarely fakes.
const (
	// minPreamblePeaks is how many periodic peaks the detector demands.
	minPreamblePeaks = 5
	// spacingTolerance is the accepted relative deviation of peak spacing
	// from one symbol time.
	spacingTolerance = 0.3
	// corrDetectThreshold is the minimum normalized correlation for a peak
	// in correlation-based detection.
	corrDetectThreshold = 0.60
)

// DetectPreamble scans a sampler-rate envelope for the LoRa preamble and
// returns the sample index where the first preamble symbol begins. The
// comparator modes look for periodic high-run tails (the t_F markers of
// Figure 7); ModeFull correlates against a one-symbol template, the
// packet-detection technique of Section 3.2.
func (d *Demodulator) DetectPreamble(env []float64) (int, bool) {
	if d.cfg.Mode == ModeFull {
		return d.detectByCorrelation(env, 0)
	}
	return d.detectByComparator(env)
}

// DetectPreambleGated is DetectPreamble with a minimum envelope excursion
// per correlation peak. A stream segmenter hunting over idle air needs it:
// without an amplitude gate the scale-free correlation detector locks onto
// noise patterns in the gaps, and a false lock consumes buffer that may
// hold a real frame's preamble. The comparator modes are inherently gated
// by U_H and ignore minPeak.
func (d *Demodulator) DetectPreambleGated(env []float64, minPeak float64) (int, bool) {
	if d.cfg.Mode == ModeFull {
		return d.detectByCorrelation(env, minPeak)
	}
	return d.detectByComparator(env)
}

// NoiseStats reports the calibrated envelope noise statistics: the no-signal
// baseline level and the envelope noise standard deviation. Stream
// segmenters derive their detection gates from these.
func (d *Demodulator) NoiseStats() (baseline, sigma float64) {
	return d.baseline, d.noiseSigma
}

// comparatorTails quantizes the envelope and returns the index of every
// high-run tail — the t_F markers of Figure 7.
func (d *Demodulator) comparatorTails(env []float64) []int {
	d.scratchBit = d.comparator.Quantize(d.scratchBit, env)
	bits := d.scratchBit
	var tails []int
	for i := 0; i < len(bits); i++ {
		if bits[i] && (i+1 == len(bits) || !bits[i+1]) {
			tails = append(tails, i)
		}
	}
	return tails
}

// correlationPeaks slides the one-symbol preamble template over the
// envelope and returns every local correlation maximum above the detection
// threshold, including the lag-0 and final-lag edges (a frame that starts
// exactly at the preamble peaks at lag 0). Normalized correlation is
// scale-free, so near-flat noise windows can correlate spuriously; a
// positive minPeak additionally demands the envelope within each peak's
// symbol window actually rises to that level (0 disables the gate,
// preserving the maximum sensitivity of the synchronized per-frame path).
func (d *Demodulator) correlationPeaks(env []float64, minPeak float64) []int {
	tmpl := d.detectionTemplate()
	if len(tmpl) == 0 || len(env) < len(tmpl) {
		return nil
	}
	c := dsp.NormalizedCrossCorrelate(nil, env, tmpl)
	spb := int(math.Round(d.spbSamp))
	var peaks []int
	for i := 0; i < len(c); i++ {
		if c[i] < corrDetectThreshold {
			continue
		}
		if (i == 0 || c[i] >= c[i-1]) && (i+1 == len(c) || c[i] >= c[i+1]) {
			if minPeak > 0 && dsp.Max(env[i:min(i+spb, len(env))]) < minPeak {
				continue
			}
			peaks = append(peaks, i)
		}
	}
	return peaks
}

// detectByComparator finds high-run tails and demands minPreamblePeaks
// consecutive tails spaced one symbol apart.
func (d *Demodulator) detectByComparator(env []float64) (int, bool) {
	first, _, ok := periodicRun(d.comparatorTails(env), d.spbSamp)
	if !ok {
		return 0, false
	}
	// A preamble up-chirp peaks at the end of its symbol, so the symbol
	// begins one symbol time before the tail.
	start := first - int(math.Round(d.spbSamp)) + 1
	if start < 0 {
		start = 0
	}
	return start, true
}

// detectByCorrelation demands periodic high-correlation peaks.
func (d *Demodulator) detectByCorrelation(env []float64, minPeak float64) (int, bool) {
	first, _, ok := periodicRun(d.correlationPeaks(env, minPeak), d.spbSamp)
	if !ok {
		return 0, false
	}
	return first, true // correlation lag == symbol start
}

// DetectFrameSync locates the first payload sample of a frame inside a
// stream-extracted window. Where DetectPreamble anchors on the *first*
// marker of the periodic preamble run, this anchors on its *last*: in a
// continuous capture the leading chirp rises out of noise with the video
// filter mid-state, so its peak is routinely degraded and the detector
// locks one or two chirps late — counting a fixed ten chirps forward from
// such a start slips the payload window by exactly the number of missed
// chirps. The run's end is unambiguous no matter how many leading chirps
// were lost, because the 2.25-symbol sync gap breaks the periodicity there
// (a 3.25-symbol marker gap, far outside spacingTolerance).
func (d *Demodulator) DetectFrameSync(env []float64) (int, bool) {
	if d.cfg.Mode == ModeFull {
		// A spurious correlation peak in the low-amplitude sync gap (the
		// scale-free correlator needs no real signal) would tack itself
		// onto the end of the run and slide the anchor — and with it the
		// whole payload — a symbol late. Gate the peaks on the calibrated
		// envelope swing: a real chirp window rises toward amax, sync-gap
		// windows stay near the baseline.
		gate := d.baseline + 0.4*(d.amax-d.baseline)
		_, last, ok := periodicRun(d.correlationPeaks(env, gate), d.spbSamp)
		if !ok {
			return 0, false
		}
		// last is the start lag of the final preamble chirp; the payload
		// begins one symbol plus the sync gap later.
		return last + int(math.Round((1+lora.SyncSymbols)*d.spbSamp)), true
	}
	_, last, ok := periodicRun(d.comparatorTails(env), d.spbSamp)
	if !ok {
		return 0, false
	}
	// last is the final sample of the last preamble chirp's high run; the
	// sync gap starts on the next sample.
	return last + 1 + int(math.Round(lora.SyncSymbols*d.spbSamp)), true
}

// detectionTemplate lazily renders the noise-free one-symbol envelope at
// the sampler rate used for detection.
func (d *Demodulator) detectionTemplate() []float64 {
	if d.detTmpl == nil {
		p := d.cfg.Params
		traj := p.FreqTrajectory(nil, 0, d.fsSim)
		// Render at a nominal strong RSS: the template's *shape* is RSS
		// independent (the chain is linear after the square law for a
		// noise-free input).
		d.detTmpl = d.RenderEnvelope(nil, traj, -40, nil)
	}
	return d.detTmpl
}

// periodicRun finds the first run of at least minPreamblePeaks markers
// whose spacing stays within spacingTolerance of period, extends it as far
// as the periodicity holds, and returns the run's first and last markers.
func periodicRun(marks []int, period float64) (first, last int, ok bool) {
	if len(marks) < minPreamblePeaks {
		return 0, 0, false
	}
	lo := period * (1 - spacingTolerance)
	hi := period * (1 + spacingTolerance)
	run := 1
	runStart := 0
	at := 0 // index of the last *accepted* marker of the current run
	for i := 1; i < len(marks); i++ {
		// Gaps are measured from the last accepted marker, never from an
		// ignored one: measuring from a jittery extra marker would shrink
		// every following gap by the jitter offset, so a single spurious
		// tail could cascade — each true marker lands under lo relative to
		// the previous reject and the run never grows.
		gap := float64(marks[i] - marks[at])
		switch {
		case gap >= lo && gap <= hi:
			run++
			at = i
		case gap < lo:
			// A jittery extra marker inside the period: ignore it without
			// resetting the run.
		default:
			// Periodicity broke; report the run if it was long enough
			// (detection wants the earliest run, not the longest).
			if run >= minPreamblePeaks {
				return marks[runStart], marks[at], true
			}
			run = 1
			runStart = i
			at = i
		}
	}
	if run >= minPreamblePeaks {
		return marks[runStart], marks[at], true
	}
	return 0, 0, false
}

// CarrierSense reports whether any signal is present in the envelope: the
// mean level must exceed the calibrated noise baseline by
// carrierSenseSigmas standard deviations. This corresponds to the paper's
// "detect the incident signal" sensitivity experiment (Figure 22), which is
// less demanding than full preamble detection.
func (d *Demodulator) CarrierSense(env []float64) bool {
	if len(env) == 0 {
		return false
	}
	const carrierSenseSigmas = 4
	m := dsp.Mean(env)
	sem := d.noiseSigma / math.Sqrt(float64(len(env)))
	return m > d.baseline+carrierSenseSigmas*sem
}
