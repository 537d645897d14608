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
	return d.DetectPreambleGated(env, 0)
}

// DetectPreambleGated is DetectPreamble with a minimum envelope excursion
// per correlation peak. A stream segmenter hunting over idle air needs it:
// without an amplitude gate the scale-free correlation detector locks onto
// noise patterns in the gaps, and a false lock consumes buffer that may
// hold a real frame's preamble. The comparator modes are inherently gated
// by U_H and ignore minPeak.
func (d *Demodulator) DetectPreambleGated(env []float64, minPeak float64) (int, bool) {
	if d.cfg.Mode == ModeFull {
		// Correlation lag == symbol start.
		first, _, ok := d.correlationRun(env, minPeak, false)
		if !ok {
			return 0, false
		}
		return first, true
	}
	return d.detectByComparator(env)
}

// comparatorTails quantizes the envelope and returns the index of every
// high-run tail — the t_F markers of Figure 7. The result lives in receiver
// scratch and is valid until the next comparatorTails call.
func (d *Demodulator) comparatorTails(env []float64) []int {
	d.scratchBit = d.comparator.Quantize(d.scratchBit, env)
	bits := d.scratchBit
	tails := d.scratchMarks[:0]
	for i := 0; i < len(bits); i++ {
		if bits[i] && (i+1 == len(bits) || !bits[i+1]) {
			tails = append(tails, i)
		}
	}
	d.scratchMarks = tails
	return tails
}

// correlationRun slides the one-symbol preamble template over the
// envelope lag by lag and feeds every local correlation maximum above the
// detection threshold into a periodic-run tracker: the periodicRun of the
// full peak list, without building it. Peaks include the lag-0 and
// final-lag edges (a frame that starts exactly at the preamble peaks at
// lag 0), and a peak is confirmed once the next lag is known. Normalized
// correlation is scale-free, so near-flat noise windows can correlate
// spuriously; a positive minPeak additionally demands the envelope within
// each peak's symbol window actually rises to that level (0 disables the
// gate, preserving the maximum sensitivity of the synchronized per-frame
// path).
//
// The search stops as soon as the answer the caller wants is fixed: with
// wantLast false (DetectPreamble anchors on the run's first peak) once a
// run reaches minPreamblePeaks, and with wantLast true (DetectFrameSync
// anchors on its last) once the current lag lies more than a spacing
// tolerance past the run's last peak, since any later peak then breaks
// the run. The lags it skips cannot change the result, so it equals the
// full correlation's periodicRun bit for bit. It allocates nothing.
//
//saiyan:hotpath
func (d *Demodulator) correlationRun(env []float64, minPeak float64, wantLast bool) (first, last int, ok bool) {
	tmpl, norm := d.detectionTemplate()
	var ncc dsp.SlidingNCC
	n := ncc.Reset(env, tmpl, norm)
	if n == 0 {
		return 0, 0, false
	}
	spb := int(math.Round(d.spbSamp))
	r := newRunTracker(d.spbSamp)
	var prev float64
	cur := ncc.Next()
	for i := 0; i < n; i++ {
		if r.fixed(i, wantLast) {
			break
		}
		var next float64
		if i+1 < n {
			next = ncc.Next()
		}
		// The comparisons keep the batch form's exact NaN behavior: a lag
		// is skipped only when it is provably below the threshold.
		if !(cur < corrDetectThreshold) && (i == 0 || cur >= prev) && (i+1 == n || cur >= next) {
			if !(minPeak > 0 && dsp.Max(env[i:min(i+spb, len(env))]) < minPeak) {
				r.add(i)
			}
		}
		prev, cur = cur, next
	}
	return r.result()
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

// DetectFrameSync locates the first payload sample of a frame inside a
// stream-extracted window. Where DetectPreamble anchors on the *first*
// marker of the periodic preamble run, this anchors on its *last*: in a
// continuous capture the leading chirp rises out of noise with the video
// filter mid-state, so its peak is routinely degraded and the detector
// locks one or two chirps late — counting a fixed ten chirps forward from
// such a start slips the payload window by exactly the number of missed
// chirps. The run's end is unambiguous no matter how many leading chirps
// were lost, because the 2.25-symbol sync gap breaks the periodicity there
// (a 3.25-symbol marker gap, far outside spacingTolerance). In ModeFull
// the correlation stops one spacing tolerance past the run's last peak,
// where the answer is fixed: a 45-symbol window is correlated only
// through its preamble.
func (d *Demodulator) DetectFrameSync(env []float64) (int, bool) {
	if d.cfg.Mode == ModeFull {
		// A spurious correlation peak in the low-amplitude sync gap (the
		// scale-free correlator needs no real signal) would tack itself
		// onto the end of the run and slide the anchor — and with it the
		// whole payload — a symbol late. Gate the peaks on the calibrated
		// envelope swing: a real chirp window rises toward amax, sync-gap
		// windows stay near the baseline.
		gate := d.baseline + 0.4*(d.amax-d.baseline)
		_, last, ok := d.correlationRun(env, gate, true)
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
// the sampler rate used for detection, and returns it centered (zero mean)
// with its L2 norm, ready for dsp.SlidingNCC.
func (d *Demodulator) detectionTemplate() ([]float64, float64) {
	if d.detTmpl == nil {
		p := d.cfg.Params
		traj := p.FreqTrajectory(nil, 0, d.fsSim)
		// Render at a nominal strong RSS: the template's *shape* is RSS
		// independent (the chain is linear after the square law for a
		// noise-free input).
		env := d.RenderEnvelope(nil, traj, -40, nil)
		d.detTmpl, d.detNorm = dsp.CenterTemplate(env)
	}
	return d.detTmpl, d.detNorm
}

// periodicRun finds the first run of at least minPreamblePeaks markers
// whose spacing stays within spacingTolerance of period, extends it as far
// as the periodicity holds, and returns the run's first and last markers.
// It feeds marks to a runTracker, which correlationRun feeds lazily.
func periodicRun(marks []int, period float64) (first, last int, ok bool) {
	r := newRunTracker(period)
	for _, m := range marks {
		if r.add(m) {
			break
		}
	}
	return r.result()
}

// runTracker is periodicRun's search fed one marker at a time, in
// increasing order, so a caller producing markers lazily can stop as soon
// as the answer is fixed.
type runTracker struct {
	lo, hi float64 // accepted marker spacing
	run    int     // markers in the current run (0 before the first)
	first  int     // first marker of the current run
	last   int     // last *accepted* marker of the current run
	closed bool    // a break ended a long-enough run: the answer is final
}

func newRunTracker(period float64) runTracker {
	return runTracker{lo: period * (1 - spacingTolerance), hi: period * (1 + spacingTolerance)}
}

// add feeds the next marker and reports whether the run has closed, after
// which further markers are ignored.
//
//saiyan:hotpath
func (r *runTracker) add(m int) bool {
	if r.closed {
		return true
	}
	if r.run == 0 {
		r.run, r.first, r.last = 1, m, m
		return false
	}
	// Gaps are measured from the last accepted marker, never from an
	// ignored one: measuring from a jittery extra marker would shrink
	// every following gap by the jitter offset, so a single spurious tail
	// could cascade — each true marker lands under lo relative to the
	// previous reject and the run never grows.
	gap := float64(m - r.last)
	switch {
	case gap >= r.lo && gap <= r.hi:
		r.run++
		r.last = m
	case gap < r.lo:
		// A jittery extra marker inside the period: ignore it without
		// resetting the run.
	default:
		// Periodicity broke; keep the run if it was long enough
		// (detection wants the earliest run, not the longest).
		if r.found() {
			r.closed = true
			return true
		}
		r.run, r.first, r.last = 1, m, m
	}
	return false
}

// found reports whether the current run is long enough to be a preamble.
func (r *runTracker) found() bool { return r.run >= minPreamblePeaks }

// fixed reports whether the answer can no longer change, given that every
// marker below next has been fed. A long-enough run's first marker is
// fixed at once: later markers only extend the run or close it. Its last
// marker (wantLast) is fixed once the run has closed, or once any marker
// at or after next would lie too far behind it and close it.
func (r *runTracker) fixed(next int, wantLast bool) bool {
	return r.found() && (!wantLast || r.closed || float64(next-r.last) > r.hi)
}

// result returns the run's first and last markers, if it is long enough.
func (r *runTracker) result() (first, last int, ok bool) {
	if !r.found() {
		return 0, 0, false
	}
	return r.first, r.last, true
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
