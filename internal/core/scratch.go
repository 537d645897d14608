package core

import (
	"math"
	"math/rand/v2"

	"saiyan/internal/lora"
)

// FrameScratch holds the large per-frame rendering buffers — the
// simulation-rate frequency trajectory and the sampler/correlator-rate
// envelopes — so hot demodulation loops can recycle them across frames
// (typically through a sync.Pool shared by a worker pool). The zero value
// is ready to use; buffers grow on demand and are retained between frames.
//
// A FrameScratch must not be shared by concurrent ProcessFrameScratch
// calls.
type FrameScratch struct {
	Traj []float64 // simulation-rate frequency trajectory
	Env  []float64 // sampler-rate envelope
	EnvC []float64 // correlator-rate envelope (ModeFull only)

	// Rendered is the number of simulation-rate samples pushed through the
	// analog chain by the last ProcessFrameScratch call; pipelines use it
	// for Msamples/sec throughput accounting.
	Rendered int
}

// ProcessFrameScratch is ProcessFrame with caller-owned render buffers: it
// runs the complete tag pipeline on a downlink frame arriving at rssDBm,
// reusing s.Traj / s.Env / s.EnvC instead of allocating fresh slices per
// frame. The returned symbol slice is freshly allocated and remains valid
// after s is recycled.
func (d *Demodulator) ProcessFrameScratch(frame *lora.Frame, rssDBm float64, rng *rand.Rand, s *FrameScratch) ([]int, bool, error) {
	if !d.calibrated {
		return nil, false, ErrNotCalibrated
	}
	if s == nil {
		s = &FrameScratch{}
	}
	s.Traj = frame.FreqTrajectory(s.Traj[:0], d.fsSim)
	s.Rendered = len(s.Traj)
	s.Env = d.RenderEnvelope(s.Env[:0], s.Traj, rssDBm, rng)
	start, ok := d.DetectPreamble(s.Env)
	if !ok {
		return nil, false, nil
	}
	// DetectPreamble returns where the first preamble symbol begins; the
	// payload follows the ten up-chirps and 2.25 sync symbol times
	// (Section 2.2, Figure 8).
	payloadAt := start + int(math.Round((float64(lora.PreambleUpchirps)+lora.SyncSymbols)*d.spbSamp))
	if d.cfg.Mode == ModeFull {
		s.EnvC = d.RenderCorrEnvelope(s.EnvC[:0], s.Traj, rssDBm, rng)
		s.Rendered += len(s.Traj)
	}
	return d.decodePayloadAt(nil, s.Env, s.EnvC, payloadAt, len(frame.Payload))
}

// Clone returns an independent demodulator with the same configuration and
// calibration state. The clone has private scratch buffers, so clones of
// one calibrated master can demodulate concurrently (a Demodulator itself
// is not safe for concurrent use). Immutable calibration artifacts — the
// correlation templates and the detection template — are shared by
// reference; they are read-only after calibration.
func (d *Demodulator) Clone() *Demodulator {
	// cfg was validated and defaulted by New, so re-building cannot fail.
	c, err := New(d.cfg)
	if err != nil {
		panic("core: Clone of demodulator with invalid config: " + err.Error())
	}
	// Clone never mutates d: Calibrate materializes every template
	// (including the lazy detection template), so a calibrated master is
	// read-only and safe to clone from concurrently.
	c.calibrated = d.calibrated
	c.comparator = d.comparator
	c.baseline = d.baseline
	c.noiseSigma = d.noiseSigma
	c.amax = d.amax
	c.peakBias = d.peakBias
	c.biasCached = d.biasCached
	c.cachedBias = d.cachedBias
	c.templates = d.templates
	c.tmplStats = d.tmplStats
	c.detTmpl = d.detTmpl
	c.detNorm = d.detNorm
	if d.fx != nil {
		// Clone the integer twin too: private scratch and cycle ledger,
		// shared immutable template bank.
		c.fx = d.fx.Clone()
	}
	return c
}
