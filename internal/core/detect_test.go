package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"saiyan/internal/dsp"
	"saiyan/internal/lora"
)

// streamEnvelope renders a continuous capture holding one frame at a given
// symbol offset: idle noise, then the frame, then idle noise — the signal a
// stream detector actually faces (the frame rises out of a warm noise
// floor rather than starting at sample zero).
func streamEnvelope(t testing.TB, d *Demodulator, frame *lora.Frame, offsetSymbols float64, rssDBm float64, totalSymbols float64, rng *rand.Rand) []float64 {
	t.Helper()
	p := d.Config().Params
	fsSim := d.SimRateHz()
	spbSim := p.SamplesPerSymbol(fsSim)
	traj := frame.FreqTrajectory(nil, fsSim)
	total := int(math.Round(totalSymbols * float64(spbSim)))
	if need := int(math.Round(offsetSymbols*float64(spbSim))) + len(traj); need > total {
		total = need
	}
	x := make([]complex128, total)
	d.ComposeSignal(x, int(math.Round(offsetSymbols*float64(spbSim))), traj, rssDBm)
	env, _ := d.RenderStream(x, rng)
	return env
}

// TestDetectPreambleTable is the table-driven detection coverage: frames at
// several signal strengths and nonzero offsets inside a noisy continuous
// envelope, for both the comparator and correlation detectors.
func TestDetectPreambleTable(t *testing.T) {
	cases := []struct {
		name          string
		mode          Mode
		rssDBm        float64
		offsetSymbols float64
		calibRSS      float64
		wantDetect    bool
	}{
		{"full/strong/offset5", ModeFull, -50, 5, -50, true},
		{"full/mid/offset11.4", ModeFull, -65, 11.4, -65, true},
		{"full/weak/offset7", ModeFull, -75, 7, -75, true},
		{"full/deep-noise/offset6", ModeFull, -110, 6, -70, false},
		{"vanilla/strong/offset4", ModeVanilla, -50, 4, -50, true},
		{"vanilla/mid/offset9.3", ModeVanilla, -60, 9.3, -60, true},
		{"vanilla/deep-noise/offset6", ModeVanilla, -110, 6, -60, false},
	}
	payload := []int{1, 0, 1, 1, 0, 0, 1, 0}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mode = tc.mode
			d, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d.Calibrate(tc.calibRSS, dsp.NewRand(11, 12))
			frame, err := lora.NewFrame(cfg.Params, payload)
			if err != nil {
				t.Fatal(err)
			}
			env := streamEnvelope(t, d, frame, tc.offsetSymbols, tc.rssDBm, 64, dsp.NewRand(13, 14))
			// Stream inputs carry long noise runs before the frame, so use
			// the gated hunt the segmenter uses: without the envelope gate
			// the scale-free correlator locks onto the leading noise.
			cal := d.Calibration()
			start, ok := d.DetectPreambleGated(env, cal.Baseline+4*cal.NoiseSigma)
			if ok != tc.wantDetect {
				t.Fatalf("detect=%v, want %v", ok, tc.wantDetect)
			}
			if !tc.wantDetect {
				return
			}
			// The detector may lock a chirp or two late (the leading chirp
			// rises out of noise); it must never lock early or drift past
			// the preamble.
			spb := d.SamplesPerSymbol()
			expect := tc.offsetSymbols * spb
			slack := 2.5 * spb
			if float64(start) < expect-1.5*spb || float64(start) > expect+slack {
				t.Errorf("preamble located at %d, want within [%.0f, %.0f] (offset %.1f symbols)",
					start, expect-1.5*spb, expect+slack, tc.offsetSymbols)
			}
		})
	}
}

// TestDetectPreambleFalsePositiveRate measures the no-signal behavior: over
// many independent noise-only captures the gated hunt detector must stay
// quiet almost always. The comparator mode is inherently amplitude-gated by
// U_H; ModeFull relies on the envelope gate — the same configuration the
// stream segmenter runs with.
func TestDetectPreambleFalsePositiveRate(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeFull} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.Calibrate(-60, dsp.NewRand(21, 22))
		cal := d.Calibration()
		p := cfg.Params
		spbSim := p.SamplesPerSymbol(d.SimRateHz())
		const trials = 40
		false1 := 0
		for trial := 0; trial < trials; trial++ {
			x := make([]complex128, 60*spbSim)
			env, _ := d.RenderStream(x, dsp.NewRand(uint64(trial), 23))
			if _, ok := d.DetectPreambleGated(env, cal.Baseline+4*cal.NoiseSigma); ok {
				false1++
			}
		}
		if false1 > trials/10 {
			t.Errorf("%v: %d/%d false preamble detections on noise-only captures", mode, false1, trials)
		}
	}
}

// TestDetectFrameSyncAnchorsOnPreambleEnd verifies the stream-sync anchor:
// even when the detector misses the leading chirp (degraded by the
// noise-to-signal transition), the located payload start must stay within a
// fraction of a symbol of the truth, because the anchor is the run's end.
func TestDetectFrameSyncAnchorsOnPreambleEnd(t *testing.T) {
	cfg := DefaultConfig()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Calibrate(-55, dsp.NewRand(31, 32))
	payload := make([]int, 16)
	frame, err := lora.NewFrame(cfg.Params, payload)
	if err != nil {
		t.Fatal(err)
	}
	const offset = 6.0
	env := streamEnvelope(t, d, frame, offset, -55, 64, dsp.NewRand(33, 34))
	payloadAt, ok := d.DetectFrameSync(env)
	if !ok {
		t.Fatal("DetectFrameSync found nothing")
	}
	spb := d.SamplesPerSymbol()
	truth := (offset + lora.PreambleUpchirps + lora.SyncSymbols) * spb
	if diff := float64(payloadAt) - truth; diff < -0.5*spb || diff > 0.5*spb {
		t.Errorf("payload anchored at %d, truth %.1f (off by %.2f symbols)", payloadAt, truth, diff/spb)
	}
}

// TestFirstPeriodicRunJitterChain is the regression for the ignored-marker
// bug: with a jittery extra marker ~35%% of a period after every true
// marker, the old code measured each next gap from the *ignored* marker, so
// every gap read as sub-period and the run never grew — a perfectly
// periodic preamble went undetected because of spurious tails alone.
func TestFirstPeriodicRunJitterChain(t *testing.T) {
	const period = 100.0
	// True markers every 100, a spurious tail 35 after each.
	marks := []int{0, 35, 100, 135, 200, 235, 300, 335, 400, 435}
	first, last, ok := periodicRun(marks, period)
	if !ok {
		t.Fatal("jitter chain defeated the periodic-run detector")
	}
	if first != 0 {
		t.Errorf("run starts at %d, want 0", first)
	}
	// The run's end must be the last true marker, not a spurious tail.
	if last != 400 {
		t.Errorf("run ends at %d (ok=%v), want 400", last, ok)
	}
}

// TestPeriodicRunBasics pins the plain cases.
func TestPeriodicRunBasics(t *testing.T) {
	cases := []struct {
		name   string
		marks  []int
		period float64
		first  int
		last   int
		ok     bool
	}{
		{"clean", []int{10, 110, 210, 310, 410, 510}, 100, 10, 510, true},
		{"too-few", []int{0, 100, 200, 300}, 100, 0, 0, false},
		{"reset-then-run", []int{0, 500, 600, 700, 800, 900, 1000}, 100, 500, 1000, true},
		{"jitter-tolerated", []int{0, 95, 205, 300, 410, 505}, 100, 0, 505, true},
		{"break-after-run", []int{0, 100, 200, 300, 400, 900}, 100, 0, 400, true},
		{"empty", nil, 100, 0, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			first, last, ok := periodicRun(tc.marks, tc.period)
			if ok != tc.ok || first != tc.first || last != tc.last {
				t.Errorf("periodicRun=%d,%d,%v want %d,%d,%v", first, last, ok, tc.first, tc.last, tc.ok)
			}
		})
	}
}

// FuzzFirstPeriodicRun fuzzes the periodic-run search with arbitrary marker
// layouts: it must never panic, and any reported run must consist of
// markers actually present, ordered, and at least minPreamblePeaks long in
// span.
func FuzzFirstPeriodicRun(f *testing.F) {
	f.Add([]byte{100, 100, 100, 100, 100}, 100.0)
	f.Add([]byte{10, 35, 65, 100, 35, 65, 100, 100}, 100.0)
	f.Add([]byte{0, 0, 0, 0, 0, 0}, 6.4)
	f.Add([]byte{6, 7, 6, 6, 7, 8, 13, 6}, 6.4)
	f.Fuzz(func(t *testing.T, deltas []byte, period float64) {
		if period <= 0 || math.IsNaN(period) || math.IsInf(period, 0) {
			t.Skip()
		}
		marks := make([]int, 0, len(deltas))
		at := 0
		for _, d := range deltas {
			at += int(d)
			marks = append(marks, at)
		}
		first, last, ok := periodicRun(marks, period)
		if !ok {
			return
		}
		contains := func(v int) bool {
			for _, m := range marks {
				if m == v {
					return true
				}
			}
			return false
		}
		if !contains(first) || !contains(last) {
			t.Fatalf("run [%d, %d] reports markers not in the input %v", first, last, marks)
		}
		if last < first {
			t.Fatalf("run end %d before start %d", last, first)
		}
		lo := period * (1 - spacingTolerance)
		if float64(last-first) < float64(minPreamblePeaks-1)*lo-1e-9 {
			t.Fatalf("run [%d, %d] too short for %d periodic markers at period %g", first, last, minPreamblePeaks, period)
		}
	})
}

// refCorrelationPeaks is the batch peak search correlationRun replaced:
// the full-length correlation, then every local maximum above the
// detection threshold that passes the envelope gate. periodicRun over its
// peaks is the reference correlationRun must reproduce in both anchor
// modes.
func refCorrelationPeaks(d *Demodulator, env []float64, minPeak float64) []int {
	tmpl, norm := d.detectionTemplate()
	if len(tmpl) == 0 || len(env) < len(tmpl) {
		return nil
	}
	var ncc dsp.SlidingNCC
	c := make([]float64, ncc.Reset(env, tmpl, norm))
	for i := range c {
		c[i] = ncc.Next()
	}
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

// checkCorrelationRun fails t unless correlationRun agrees with the batch
// reference: on the first peak when anchoring on the run's start, on both
// ends when anchoring on its end. It returns the reference result.
func checkCorrelationRun(t testing.TB, d *Demodulator, env []float64, gate float64) (first, last int, ok bool) {
	t.Helper()
	first, last, ok = periodicRun(refCorrelationPeaks(d, env, gate), d.spbSamp)
	if f, _, k := d.correlationRun(env, gate, false); k != ok || f != first {
		t.Fatalf("gate %g, first anchor: %d,%v want %d,%v (env %v)", gate, f, k, first, ok, env)
	}
	if f, l, k := d.correlationRun(env, gate, true); k != ok || f != first || l != last {
		t.Fatalf("gate %g, last anchor: %d,%d,%v want %d,%d,%v (env %v)", gate, f, l, k, first, last, ok, env)
	}
	return first, last, ok
}

// opsEnvelope builds an envelope from op bytes: template copies at
// varying amplitudes, short near-flat gaps, single samples, and the odd
// NaN or infinity. Back-to-back copies, and copies one or two samples
// apart, sit within the default symbol spacing; wider gaps break a run,
// so periodic, broken and jittery peak runs all occur.
func opsEnvelope(tmpl []float64, ops []byte) []float64 {
	var env []float64
	for i, b := range ops {
		switch b >> 6 {
		case 0:
			amp := 0.25 + float64(b&63)/16
			for _, v := range tmpl {
				env = append(env, 1+amp*v)
			}
		case 1:
			for k := range int(b&7) + 1 {
				env = append(env, 1+0.01*float64((7*i+3*k)%5))
			}
		case 2:
			env = append(env, float64(b&63)/8)
		default:
			switch b {
			case 255:
				env = append(env, math.NaN())
			case 254:
				env = append(env, math.Inf(1))
			case 253:
				env = append(env, math.Inf(-1))
			default:
				env = append(env, 1)
			}
		}
	}
	return env
}

// placedEnvelope is a flat envelope of n samples with one template copy
// starting at each of lags.
func placedEnvelope(tmpl []float64, n int, lags ...int) []float64 {
	env := make([]float64, n)
	for i := range env {
		env[i] = 1
	}
	for _, at := range lags {
		for k, v := range tmpl {
			env[at+k] += v
		}
	}
	return env
}

// corrTestDemod returns a calibrated ModeFull demodulator and its
// detection template scaled to unit peak magnitude, so the envelope
// builders' levels and the test gates are on one scale.
func corrTestDemod(t testing.TB) (*Demodulator, []float64) {
	t.Helper()
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.Calibrate(-60, dsp.NewRand(41, 42))
	tmpl, _ := d.detectionTemplate()
	peak := 0.0
	for _, v := range tmpl {
		peak = max(peak, math.Abs(v))
	}
	unit := make([]float64, len(tmpl))
	for i, v := range tmpl {
		unit[i] = v / peak
	}
	return d, unit
}

// TestCorrelationRunMatchesBatch pins the early-exit correlation run to
// the batch reference on the edge cases: gate off and on, a flat template
// (hNorm 0), windows shorter than the template, and runs whose last peak
// lies exactly the spacing tolerance's upper bound after the one before,
// or one lag past it.
func TestCorrelationRunMatchesBatch(t *testing.T) {
	base, tmpl := corrTestDemod(t)
	// A 10-sample period puts the accepted spacing at exactly [7, 13].
	period10 := base.Clone()
	period10.spbSamp = 10
	if hi := 10 * (1 + spacingTolerance); hi != 13 {
		t.Fatalf("period 10 spacing bound %v, want exactly 13", hi)
	}
	flat := base.Clone()
	flat.detTmpl, flat.detNorm = dsp.CenterTemplate(make([]float64, len(tmpl)))
	cases := []struct {
		name      string
		d         *Demodulator
		env       []float64
		gate      float64
		wantOK    bool
		wantFirst int
		wantLast  int
	}{
		{"run-ends-at-hi", period10, placedEnvelope(tmpl, 90, 0, 10, 20, 30, 40, 53), 0, true, 0, 53},
		{"run-ends-at-hi/gated", period10, placedEnvelope(tmpl, 90, 0, 10, 20, 30, 40, 53), 1.5, true, 0, 53},
		{"run-continues-past-hi-gap", period10, placedEnvelope(tmpl, 90, 0, 10, 20, 30, 40, 53, 63), 0, true, 0, 63},
		{"break-one-past-hi", period10, placedEnvelope(tmpl, 90, 0, 10, 20, 30, 40, 54), 0, true, 0, 40},
		{"break-one-past-hi-at-window-end", period10, placedEnvelope(tmpl, 60, 0, 10, 20, 30, 40, 54), 0, true, 0, 40},
		{"too-few-peaks", period10, placedEnvelope(tmpl, 90, 0, 10, 20, 30), 0, false, 0, 0},
		{"gate-rejects-all", period10, placedEnvelope(tmpl, 90, 0, 10, 20, 30, 40), 2.5, false, 0, 0},
		{"flat-template", flat, placedEnvelope(tmpl, 90, 0, 10, 20, 30, 40, 50), 0, false, 0, 0},
		{"shorter-than-template", base, placedEnvelope(tmpl, len(tmpl)-1), 0, false, 0, 0},
		{"exactly-template", base, placedEnvelope(tmpl, len(tmpl), 0), 0, false, 0, 0},
		{"empty", base, nil, 0, false, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			first, last, ok := checkCorrelationRun(t, tc.d, tc.env, tc.gate)
			if ok != tc.wantOK || first != tc.wantFirst || last != tc.wantLast {
				t.Errorf("run %d..%d ok=%v, want %d..%d ok=%v", first, last, ok, tc.wantFirst, tc.wantLast, tc.wantOK)
			}
		})
	}
}

// TestCorrelationRunRandomized compares the early-exit correlation run
// with the batch reference on random op envelopes, at the default symbol
// spacing and a 10-sample one, with the gate off and on.
func TestCorrelationRunRandomized(t *testing.T) {
	base, tmpl := corrTestDemod(t)
	period10 := base.Clone()
	period10.spbSamp = 10
	rng := dsp.NewRand(43, 44)
	trials := 20000
	if testing.Short() {
		trials = 2000
	}
	found := 0
	for trial := range trials {
		ops := make([]byte, rng.IntN(40))
		for i := range ops {
			// Mostly copies and short gaps, so runs form often.
			switch rng.IntN(10) {
			case 0:
				ops[i] = byte(rng.IntN(256))
			case 1, 2, 3:
				ops[i] = 64 | byte(rng.IntN(3))
			default:
				ops[i] = byte(rng.IntN(64))
			}
		}
		d := base
		if trial%3 == 0 {
			d = period10
		}
		env := opsEnvelope(tmpl, ops)
		for _, gate := range []float64{0, 1.1, 1.6} {
			if _, _, ok := checkCorrelationRun(t, d, env, gate); ok {
				found++
			}
		}
	}
	if found < trials/10 {
		t.Errorf("only %d of %d checks found a run: the generator no longer exercises the early exit", found, 3*trials)
	}
}

// FuzzCorrelationRun holds the early-exit correlation run to the batch
// reference, periodicRun over the full correlation's peaks, on fuzzed op
// envelopes (see opsEnvelope), gates and symbol spacings.
func FuzzCorrelationRun(f *testing.F) {
	base, tmpl := corrTestDemod(f)
	f.Add([]byte{8, 64, 8, 64, 8, 64, 8, 64, 8, 64, 8}, byte(0), false)
	f.Add([]byte{8, 8, 8, 8, 8, 71, 8, 8, 8}, byte(70), false)
	f.Add([]byte{8, 65, 8, 65, 8, 65, 8, 65, 8, 67, 8}, byte(0), true)
	f.Add([]byte{8, 64, 8, 255, 8, 64, 8, 64, 8, 254}, byte(0), false)
	f.Add([]byte{8, 64, 8}, byte(0), false)
	// Non-finite and flat envelopes. A -Inf sample right after a run's
	// fifth copy makes the next lag NaN while its dot product is -Inf, so
	// that peak must fail: a stepper that read such a lag as 0 (as a
	// sign-of-dot shortcut would) completes the run.
	f.Add([]byte{8, 64, 8, 64, 8, 64, 8, 64, 8, 253}, byte(0), false)
	f.Add([]byte{254, 8, 64, 8, 64, 8, 64, 8, 64, 8, 64, 8}, byte(0), false)
	f.Add([]byte{253, 8, 64, 8, 64, 8, 64, 8, 64, 8, 64, 8}, byte(0), true)
	f.Add([]byte{8, 64, 8, 64, 8, 255, 8, 64, 8, 64, 8, 64, 8}, byte(0), false)
	f.Add([]byte{200, 200, 200, 200, 200, 200, 200, 200, 8, 64, 8, 64, 8, 64, 8, 64, 8, 200, 200, 200}, byte(70), false)
	f.Fuzz(func(t *testing.T, ops []byte, gate byte, period10 bool) {
		d := base.Clone()
		if period10 {
			d.spbSamp = 10
		}
		checkCorrelationRun(t, d, opsEnvelope(tmpl, ops), float64(gate)/64)
	})
}
