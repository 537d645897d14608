package core

import (
	"math"
	"testing"

	"saiyan/internal/dsp"
	"saiyan/internal/lora"
)

// measureSER runs nSyms random payload symbols through the demodulator at
// the given RSS and returns the symbol error rate.
func measureSER(t *testing.T, cfg Config, rssDBm float64, nSyms int, seed uint64) float64 {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := dsp.NewRand(seed, 1)
	d.Calibrate(rssDBm, rng)
	p := d.cfg.Params
	errs := 0
	const perFrame = 16
	traj := []float64{}
	want := make([]int, perFrame)
	for done := 0; done < nSyms; done += perFrame {
		traj = traj[:0]
		for i := 0; i < perFrame; i++ {
			want[i] = rng.IntN(p.AlphabetSize())
			traj = append(traj, p.FreqTrajectory(nil, p.SymbolValue(want[i]), d.fsSim)...)
		}
		got, err := d.DemodulatePayload(traj, rssDBm, perFrame, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				errs++
			}
		}
	}
	return float64(errs) / float64(nSyms)
}

func TestNoiseFreeDecodingAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeFreqShift, ModeFull} {
		for _, k := range []int{1, 2, 5} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.Params.K = k
			d, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := dsp.NewRand(1, uint64(k))
			d.Calibrate(-50, rng)
			p := cfg.Params
			for s := 0; s < p.AlphabetSize(); s++ {
				traj := p.FreqTrajectory(nil, p.SymbolValue(s), d.fsSim)
				got, err := d.DemodulatePayload(traj, -50, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got[0] != s {
					t.Errorf("%v K=%d: symbol %d decoded as %d (noise-free)", mode, k, s, got[0])
				}
			}
		}
	}
}

func TestStrongSignalLowErrorRate(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeFreqShift, ModeFull} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		ser := measureSER(t, cfg, -55, 256, 42)
		if ser > 0.01 {
			t.Errorf("%v: SER at -55 dBm = %g, want < 1%%", mode, ser)
		}
	}
}

func TestErrorRateDegradesWithRSS(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeVanilla
	strong := measureSER(t, cfg, -55, 256, 7)
	weak := measureSER(t, cfg, -73, 256, 7)
	if weak <= strong {
		t.Errorf("SER should degrade with RSS: strong %g, weak %g", strong, weak)
	}
	if weak < 0.02 {
		t.Errorf("vanilla at -73 dBm should struggle, SER = %g", weak)
	}
}

func TestFreqShiftBeatsVanilla(t *testing.T) {
	// The cyclic-frequency-shifting gain: at an RSS where vanilla breaks
	// down, the shifted chain still decodes (paper: 11 dB gain).
	const rss = -72.0
	van := DefaultConfig()
	van.Mode = ModeVanilla
	shift := DefaultConfig()
	shift.Mode = ModeFreqShift
	serVan := measureSER(t, van, rss, 384, 99)
	serShift := measureSER(t, shift, rss, 384, 99)
	if serShift >= serVan {
		t.Errorf("freq shift (SER %g) should beat vanilla (SER %g) at %g dBm", serShift, serVan, rss)
	}
}

func TestFullBeatsFreqShift(t *testing.T) {
	const rss = -78.0
	shift := DefaultConfig()
	shift.Mode = ModeFreqShift
	full := DefaultConfig()
	full.Mode = ModeFull
	serShift := measureSER(t, shift, rss, 384, 5)
	serFull := measureSER(t, full, rss, 384, 5)
	if serFull >= serShift {
		t.Errorf("correlation (SER %g) should beat comparator (SER %g) at %g dBm", serFull, serShift, rss)
	}
}

func TestCalibrationStateSane(t *testing.T) {
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.calibrated {
		t.Error("fresh demodulator reports calibrated")
	}
	d.Calibrate(-60, dsp.NewRand(3, 3))
	if !d.calibrated {
		t.Error("calibration did not latch")
	}
	c := d.Thresholds()
	if !(c.High > c.Low && c.Low >= 0) {
		t.Errorf("thresholds U_H=%g U_L=%g malformed", c.High, c.Low)
	}
	if d.amax <= d.baseline {
		t.Errorf("peak %g not above baseline %g at -60 dBm", d.amax, d.baseline)
	}
}

func TestNotCalibratedErrors(t *testing.T) {
	d, _ := New(DefaultConfig())
	if _, err := d.DemodulatePayload(nil, -60, 0, nil); err != ErrNotCalibrated {
		t.Errorf("DemodulatePayload error = %v, want ErrNotCalibrated", err)
	}
	fr, _ := lora.NewFrame(d.Config().Params, []int{0})
	if _, _, err := d.ProcessFrame(fr, -60, nil); err != ErrNotCalibrated {
		t.Errorf("ProcessFrame error = %v, want ErrNotCalibrated", err)
	}
}

func TestProcessFrameEndToEnd(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeFull} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.Params.K = 2
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := dsp.NewRand(11, 12)
		const rss = -58.0
		d.Calibrate(rss, rng)
		payload := []int{3, 1, 0, 2, 2, 1, 3, 0}
		fr, err := lora.NewFrame(cfg.Params, payload)
		if err != nil {
			t.Fatal(err)
		}
		got, detected, err := d.ProcessFrame(fr, rss, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !detected {
			t.Fatalf("%v: preamble not detected at %g dBm", mode, rss)
		}
		errs := 0
		for i := range payload {
			if i >= len(got) || got[i] != payload[i] {
				errs++
			}
		}
		if errs > 1 {
			t.Errorf("%v: %d/%d payload symbols wrong: got %v want %v", mode, errs, len(payload), got, payload)
		}
	}
}

func TestNoDetectionOnNoise(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeFull} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := dsp.NewRand(21, 22)
		d.Calibrate(-60, rng)
		falsePos := 0
		const trials = 10
		for i := 0; i < trials; i++ {
			quiet := make([]float64, int(d.spbSim*20))
			env := d.RenderEnvelope(nil, quiet, math.Inf(-1), rng)
			if _, ok := d.DetectPreamble(env); ok {
				falsePos++
			}
		}
		if falsePos > 1 {
			t.Errorf("%v: %d/%d false preamble detections on pure noise", mode, falsePos, trials)
		}
	}
}

func TestCarrierSense(t *testing.T) {
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := dsp.NewRand(31, 32)
	d.Calibrate(-60, rng)
	p := d.cfg.Params
	traj := make([]float64, 0)
	for i := 0; i < 4; i++ {
		traj = append(traj, p.FreqTrajectory(nil, 0, d.fsSim)...)
	}
	env := d.RenderEnvelope(nil, traj, -80, rng)
	if !d.CarrierSense(env) {
		t.Error("carrier not sensed at -80 dBm")
	}
	quiet := d.RenderEnvelope(nil, make([]float64, len(traj)), math.Inf(-1), rng)
	if d.CarrierSense(quiet) {
		t.Error("carrier sensed on pure noise")
	}
	if d.CarrierSense(nil) {
		t.Error("carrier sensed on empty input")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Oversample = 1
	if _, err := New(bad); err == nil {
		t.Error("oversample 1 accepted")
	}
	bad = DefaultConfig()
	bad.CorrOversample = 5 // does not divide 16
	if _, err := New(bad); err == nil {
		t.Error("non-divisor correlator oversample accepted")
	}
	bad = DefaultConfig()
	bad.SampleRateMultiplier = 0.1
	if _, err := New(bad); err == nil {
		t.Error("sub-Nyquist multiplier accepted")
	}
	bad = DefaultConfig()
	bad.Params.SF = 1
	if _, err := New(bad); err == nil {
		t.Error("invalid lora params accepted")
	}
	bad = DefaultConfig()
	bad.VideoCutoffFrac = 5
	if _, err := New(bad); err == nil {
		t.Error("absurd video cutoff accepted")
	}
}

func TestModeString(t *testing.T) {
	if ModeVanilla.String() != "vanilla" || ModeFreqShift.String() != "freq-shift" ||
		ModeFull.String() != "full" || Mode(9).String() != "unknown" {
		t.Error("mode names wrong")
	}
}

func TestSamplerRateMatchesPaper(t *testing.T) {
	// SF7/BW500/K1 at 3.2x: 25 kHz (Table 1 practice column scale).
	cfg := DefaultConfig()
	if got := cfg.SamplerRateHz(); math.Abs(got-25000) > 1e-9 {
		t.Errorf("sampler rate = %g, want 25000", got)
	}
	if got := cfg.SimRateHz(); math.Abs(got-400000) > 1e-9 {
		t.Errorf("sim rate = %g, want 400000", got)
	}
}

func TestSymbolWindowPartitions(t *testing.T) {
	// Property: windows tile the stream with no gaps or overlaps and track
	// the generator's integer symbol length.
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := 1000
	prevHi := 0
	for s := 0; s < 20; s++ {
		lo, hi := d.symbolWindow(s, d.cfg.Oversample, n)
		if lo != prevHi {
			t.Fatalf("window %d starts at %d, want %d (gap/overlap)", s, lo, prevHi)
		}
		if hi < lo {
			t.Fatalf("window %d inverted: [%d, %d)", s, lo, hi)
		}
		prevHi = hi
	}
}

func TestRenderCorrEnvelopeLength(t *testing.T) {
	cfg := DefaultConfig()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Params
	traj := p.FreqTrajectory(nil, 0, d.fsSim)
	slow := d.RenderEnvelope(nil, traj, -50, nil)
	fast := d.RenderCorrEnvelope(nil, traj, -50, nil)
	ratio := float64(len(fast)) / float64(len(slow))
	want := float64(cfg.CorrOversample)
	if ratio < want*0.8 || ratio > want*1.2 {
		t.Errorf("correlator stream %dx sampler stream, want ~%dx (%d vs %d samples)",
			int(ratio), cfg.CorrOversample, len(fast), len(slow))
	}
}

func TestPeakBiasMeasured(t *testing.T) {
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.Calibrate(-60, dsp.NewRand(1, 2))
	// The falling-edge lag must be a small fraction of a symbol — a large
	// bias would mean the video filter design is off.
	if d.peakBias < -0.1 || d.peakBias > 0.1 {
		t.Errorf("peak bias = %g symbol fractions, want |bias| < 0.1", d.peakBias)
	}
}
