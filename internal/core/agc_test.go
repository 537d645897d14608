package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"saiyan/internal/dsp"
	"saiyan/internal/lora"
)

// processFrameAuto demodulates a frame with no prior calibration, the way
// a stream window is decoded: it renders the envelope, bootstraps
// thresholds from the leading preamble portion via AGC, then detects and
// decodes as usual.
func processFrameAuto(d *Demodulator, frame *lora.Frame, rssDBm float64, agc AGCConfig, rng *rand.Rand) ([]int, bool, error) {
	traj := frame.FreqTrajectory(nil, d.fsSim)
	env := d.RenderEnvelope(nil, traj, rssDBm, rng)
	d.autoBootstrap(env, agc)
	start, ok := d.DetectPreamble(env)
	if !ok {
		return nil, false, nil
	}
	payloadAt := start + int(math.Round((float64(lora.PreambleUpchirps)+lora.SyncSymbols)*d.spbSamp))
	var envC []float64
	if d.cfg.Mode == ModeFull {
		envC = d.RenderCorrEnvelope(nil, traj, rssDBm, rng)
	}
	return d.decodePayloadAt(nil, env, envC, payloadAt, len(frame.Payload))
}

func TestAutoCalibrateMatchesOracle(t *testing.T) {
	// AGC-derived thresholds should decode about as well as the offline
	// per-distance calibration at a comfortable RSS.
	for _, mode := range []Mode{ModeVanilla, ModeFull} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.Params.K = 2
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := dsp.NewRand(91, 92)
		const rss = -60.0
		payload := []int{2, 0, 3, 1, 2, 2, 0, 3}
		frame, err := lora.NewFrame(cfg.Params, payload)
		if err != nil {
			t.Fatal(err)
		}
		got, detected, err := processFrameAuto(d, frame, rss, DefaultAGCConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		if !detected {
			t.Fatalf("%v: AGC path did not detect the preamble", mode)
		}
		errs := 0
		for i := range payload {
			if i >= len(got) || got[i] != payload[i] {
				errs++
			}
		}
		if errs > 1 {
			t.Errorf("%v: AGC decode %v, want %v", mode, got, payload)
		}
		if !d.calibrated {
			t.Errorf("%v: AutoCalibrate did not latch calibration", mode)
		}
	}
}

func TestAutoCalibrateThresholdsSane(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeVanilla
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := dsp.NewRand(93, 94)
	// Build a preamble envelope at a known RSS and self-calibrate.
	p := cfg.Params
	var traj []float64
	for i := 0; i < 5; i++ {
		traj = append(traj, p.FreqTrajectory(nil, 0, d.SimRateHz())...)
	}
	env := d.RenderEnvelope(nil, traj, -65, rng)
	d.AutoCalibrate(env, DefaultAGCConfig())
	c := d.Thresholds()
	if !(c.High > c.Low && c.Low >= 0) {
		t.Errorf("AGC thresholds malformed: H=%g L=%g", c.High, c.Low)
	}
	// Degenerate AGC config falls back to defaults instead of exploding.
	d.AutoCalibrate(env, AGCConfig{PeakPercentile: -5})
	c2 := d.Thresholds()
	if !(c2.High > 0) {
		t.Error("fallback AGC config produced empty thresholds")
	}
}

func TestAGCAcrossDistances(t *testing.T) {
	// The whole point of AGC: one tag, several distances, no per-distance
	// table. Verify decoding holds from near to mid range.
	cfg := DefaultConfig()
	cfg.Mode = ModeVanilla
	payload := []int{1, 0, 1, 1, 0, 1}
	for _, rss := range []float64{-45, -55, -65} {
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := dsp.NewRand(95, uint64(-rss))
		frame, err := lora.NewFrame(cfg.Params, payload)
		if err != nil {
			t.Fatal(err)
		}
		got, detected, err := processFrameAuto(d, frame, rss, DefaultAGCConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		if !detected {
			t.Errorf("rss %g: no detection", rss)
			continue
		}
		errs := 0
		for i := range payload {
			if i >= len(got) || got[i] != payload[i] {
				errs++
			}
		}
		if errs > 1 {
			t.Errorf("rss %g: AGC decode %v, want %v", rss, got, payload)
		}
	}
}

func TestClockPhaseErrorDegradesShiftChain(t *testing.T) {
	// Eq. (5): the delay line must keep cos(dphi) ~ 1. A badly tuned
	// delay line (phase error near pi/2) nearly nulls the recovered
	// signal.
	good := DefaultConfig()
	good.Mode = ModeFreqShift
	bad := good
	bad.ClockPhaseError = 1.45 // cos ~ 0.12
	peak := func(cfg Config) float64 {
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := cfg.Params
		traj := p.FreqTrajectory(nil, 0, d.SimRateHz())
		env := d.RenderEnvelope(nil, traj, -60, nil)
		return dsp.Max(env)
	}
	pg, pb := peak(good), peak(bad)
	if pb > pg/3 {
		t.Errorf("phase error should crush the recovered peak: good %g, bad %g", pg, pb)
	}
}

func TestExtremeSAWDriftKillsDemodulation(t *testing.T) {
	// Failure injection: shift the SAW response by 2 MHz (far beyond any
	// temperature drift) so the chirp band falls in the stopband; the
	// demodulator should stop decoding rather than hallucinate.
	cfg := DefaultConfig()
	cfg.Mode = ModeVanilla
	cfg.SAW.SetDrift(2e6)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := dsp.NewRand(97, 98)
	const rss = -60.0
	d.Calibrate(rss, rng)
	p := cfg.Params
	errs := 0
	const trials = 64
	for i := 0; i < trials; i++ {
		s := rng.IntN(p.AlphabetSize())
		traj := p.FreqTrajectory(nil, p.SymbolValue(s), d.fsSim)
		got, err := d.DemodulatePayload(traj, rss, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != s {
			errs++
		}
	}
	if errs < trials/4 {
		t.Errorf("stopband drift still decodes (%d/%d errors); SAW model ineffective", errs, trials)
	}
}

func TestNoiseFreeStreamsProperty(t *testing.T) {
	// Property: random multi-symbol streams decode perfectly noise-free
	// across modes and coding rates (exercises the boundary-edge logic).
	for _, mode := range []Mode{ModeVanilla, ModeFreqShift} {
		for _, k := range []int{1, 3, 5} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.Params.K = k
			d, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := dsp.NewRand(uint64(k), uint64(mode))
			const rss = -50.0
			d.Calibrate(rss, rng)
			p := cfg.Params
			const n = 48
			want := make([]int, n)
			var traj []float64
			for i := range want {
				want[i] = rng.IntN(p.AlphabetSize())
				traj = append(traj, p.FreqTrajectory(nil, p.SymbolValue(want[i]), d.fsSim)...)
			}
			got, err := d.DemodulatePayload(traj, rss, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			errs := 0
			for i := range want {
				if got[i] != want[i] {
					errs++
				}
			}
			if errs > 0 {
				t.Errorf("%v K=%d: %d/%d noise-free stream errors", mode, k, errs, n)
			}
		}
	}
}
