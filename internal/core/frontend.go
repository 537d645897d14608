package core

import (
	"fmt"
	"math"
	"math/rand/v2"

	"saiyan/internal/analog"
	"saiyan/internal/dsp"
	"saiyan/internal/fxp"
)

// Demodulator is a configured Saiyan tag receiver. Build with New, then
// Calibrate for a link distance before demodulating (the prototype does the
// same: Section 4.1 stores per-distance threshold tables on the tag).
//
// A Demodulator is not safe for concurrent use; clone one per goroutine.
type Demodulator struct {
	cfg     Config
	fsSim   float64
	fsSamp  float64
	spbSim  float64 // samples per symbol at the simulation rate (fractional)
	spbSamp float64 // samples per symbol at the sampler rate (fractional)
	// spbSimInt is the integer per-symbol sample count the trajectory
	// generators use; decode windows derive from it so symbol boundaries
	// stay aligned over long frames instead of drifting by the rounding
	// residue.
	spbSimInt int

	// fe is the front-end filter design, shared with every Demodulator of
	// the same design.
	fe *frontEnd

	// gains memoizes SAW gains across renders (see sawMemo).
	gains sawMemo

	// Calibration state.
	calibrated bool
	comparator analog.Comparator[float64]
	baseline   float64 // envelope level with no signal
	noiseSigma float64 // envelope noise std dev
	amax       float64 // envelope peak with signal at the calibrated RSS
	peakBias   float64 // systematic falling-edge lag, in symbol fractions
	biasCached bool
	cachedBias float64
	templates  [][]float64
	// tmplStats precomputes each template's mean and zero-mean energy so
	// the correlation decoder's hot loop makes a single fused pass per
	// template; nil when template lengths are not uniform (exact fallback).
	tmplStats []templateStat
	// detTmpl is the one-symbol detection template, centered once by
	// dsp.CenterTemplate when it is materialized (lazily, or eagerly by
	// Calibrate/PrewarmAuto), with detNorm its L2 norm.
	detTmpl []float64
	detNorm float64

	// fx is the fixed-point MCU datapath (Config.Datapath ==
	// DatapathFixed): the payload decoders run on ADC-quantized integer
	// samples instead of the float envelope. nil for DatapathFloat.
	fx *fxp.Decoder

	// Scratch buffers to keep the per-frame hot path allocation-free.
	// chainEnvelope detects into scratchEnv and draws flicker noise into
	// scratchBuf; videoSample filters scratchEnv and may stage a sampler
	// sub-grid in scratchBuf: the two never share an array, so a filter
	// never reads its own output.
	scratchIQ  []complex128
	scratchEnv []float64
	scratchBuf []float64
	scratchBit []bool
	// The peak tracker's symbol window bounds and analog.PeakEdges output.
	scratchBounds []int
	scratchEdges  []analog.PeakEdge
	// The preamble hunt and per-window AGC reuse these: scratchMarks holds
	// the comparator tails handed to periodicRun, and scratchSort the
	// sorted copy AutoCalibrate reads its percentiles from.
	scratchMarks []int
	scratchSort  []float64
}

// New builds a demodulator from cfg, applying defaults and validating.
func New(cfg Config) (*Demodulator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &Demodulator{cfg: cfg}
	d.fsSamp = cfg.SamplerRateHz()
	d.fsSim = cfg.SimRateHz()
	d.spbSamp = cfg.Params.SymbolDuration() * d.fsSamp
	d.spbSim = cfg.Params.SymbolDuration() * d.fsSim
	d.spbSimInt = cfg.Params.SamplesPerSymbol(d.fsSim)
	d.gains = newSAWMemo(cfg, d.spbSimInt)

	key := frontEndKey{fsSim: d.fsSim, cutoff: cfg.VideoCutoffFrac * d.fsSamp}
	if cfg.Mode != ModeVanilla {
		// The MCU clock runs at fsSim/8; squaring the mixed signal lands
		// the IF at twice the clock, fsSim/4 (see frontEnd).
		key.ifHz = d.fsSim / 4
		key.phaseErr = cfg.ClockPhaseError
		key.gainDB = cfg.IFAmp.GainDB
	}
	if d.fe, err = frontEndFor(key); err != nil {
		return nil, err
	}
	if cfg.Datapath == DatapathFixed {
		d.fx, err = fxp.NewDecoder(fxp.Config{
			Params:              cfg.Params,
			SimSamplesPerSymbol: d.spbSimInt,
			SamplerDecim:        cfg.Oversample,
			CorrDecim:           cfg.Oversample / cfg.CorrOversample,
			ADCBits:             cfg.ADCBits,
		})
		if err != nil {
			return nil, fmt.Errorf("core: fixed-point datapath: %w", err)
		}
	}
	return d, nil
}

// Config returns the (defaulted) configuration.
func (d *Demodulator) Config() Config { return d.cfg }

// SamplerRateHz returns the comparator sampling rate.
func (d *Demodulator) SamplerRateHz() float64 { return d.fsSamp }

// SimRateHz returns the internal analog simulation rate.
func (d *Demodulator) SimRateHz() float64 { return d.fsSim }

// snrAmplitude converts an RSS into the normalized signal amplitude at the
// envelope-detector input: unit-power front-end noise, amplitude
// sqrt(SNR). The noise reference is thermal density plus the LNA noise
// figure over the simulation bandwidth (the front end is modeled as
// band-limited to the simulation rate).
func (d *Demodulator) snrAmplitude(rssDBm float64) float64 {
	if math.IsInf(rssDBm, -1) {
		return 0
	}
	noiseDBm := -174.0 + d.cfg.LNA.NoiseFigureDB + 10*math.Log10(d.fsSim)
	return math.Sqrt(dsp.FromDB(rssDBm - noiseDBm))
}

// ComposeSignal adds the SAW-shaped antenna signal of one transmission into
// a composite simulation-rate buffer, starting at sample offset at. The SAW
// filter is linear, so concurrent transmissions superpose: calling
// ComposeSignal repeatedly with different trajectories, offsets, and signal
// strengths builds the continuous antenna view of a whole multi-tag
// timeline (frames, gaps, even colliding frames) that RenderStream then
// pushes through the analog chain in one pass. Samples falling outside x
// are clipped.
func (d *Demodulator) ComposeSignal(x []complex128, at int, trajHz []float64, rssDBm float64) {
	amp := d.snrAmplitude(rssDBm)
	d.gains.sync(d.cfg.SAW)
	for i, f := range trajHz {
		j := at + i
		if j < 0 {
			continue
		}
		if j >= len(x) {
			break
		}
		x[j] += complex(amp*d.gains.gain(f), 0)
	}
}

// chainEnvelope pushes an antenna-level IQ series through the analog chain
// up to the square-law detector — in the cyclic-frequency-shifting modes,
// the input mixer first — adds the detector's baseband impairments, and
// returns the detector output at the simulation rate. Everything after the
// detector is linear and only read at sampler instants, so videoSample
// runs it on the sampler grid. The returned slice aliases the
// demodulator's scratch buffers and is only valid until the next render;
// x is mutated in place by the mixer.
func (d *Demodulator) chainEnvelope(x []complex128, rng *rand.Rand) []float64 {
	env := d.cfg.Envelope
	if d.cfg.Mode != ModeVanilla {
		// Cyclic-frequency shifting (Figure 9): mix up, then square.
		up := &d.fe.up
		for i := range x {
			x[i] *= complex(up[i&7], 0)
		}
	}
	y := env.Detect(d.scratchEnv, x)
	d.scratchEnv = y
	if rng != nil {
		d.scratchBuf = env.AddBasebandImpairments(y, d.scratchBuf, d.fsSim, rng)
	}
	return y
}

// videoSample reads the video output for the detector output y (see
// chainEnvelope) with a sampler decimating by decim, computing only the
// sampled outputs: the video low-pass alone in ModeVanilla, the fused IF
// chain in the shifting modes.
func (d *Demodulator) videoSample(dst, y []float64, decim int) []float64 {
	if d.cfg.Mode == ModeVanilla {
		return analog.Sampler{Oversample: decim}.SampleFiltered(dst, y, d.fe.lpf)
	}
	dst, d.scratchBuf = d.fe.sample(dst, y, d.scratchBuf, decim)
	return dst
}

// RenderEnvelope pushes an instantaneous-frequency trajectory (Hz offsets
// above the LoRa carrier, at the simulation rate) through the configured
// analog chain at the given RSS and returns the baseband envelope at the
// sampler rate. Pass rng=nil for a noise-free reference render (used for
// calibration and correlation templates).
func (d *Demodulator) RenderEnvelope(dst []float64, trajHz []float64, rssDBm float64, rng *rand.Rand) []float64 {
	return d.renderEnvelope(dst, trajHz, rssDBm, rng, d.cfg.Oversample)
}

// renderEnvelope is RenderEnvelope for a sampler decimating by decim.
func (d *Demodulator) renderEnvelope(dst []float64, trajHz []float64, rssDBm float64, rng *rand.Rand, decim int) []float64 {
	n := len(trajHz)
	amp := d.snrAmplitude(rssDBm)
	if cap(d.scratchIQ) < n {
		d.scratchIQ = make([]complex128, n)
	}
	x := d.scratchIQ[:n]
	d.gains.sync(d.cfg.SAW)
	for i, f := range trajHz {
		x[i] = complex(amp*d.gains.gain(f), 0)
	}
	if rng != nil {
		dsp.AddComplexNoise(x, 1, rng)
	}
	return d.videoSample(dst, d.chainEnvelope(x, rng), decim)
}

// RenderStream pushes a pre-composed antenna signal (see ComposeSignal)
// through the analog chain once and decimates the filtered output to every
// rate the receiver consumes: the comparator sampler stream, and — in
// ModeFull — the correlator stream at CorrOversample times that rate. This
// is how a continuous capture is rendered: one chain pass for the whole
// timeline, so frames, idle gaps, and chunk boundaries all share a single
// contiguous envelope with no per-frame filter edge transients. Front-end
// noise of unit power is added when rng is non-nil; x is mutated in place.
func (d *Demodulator) RenderStream(x []complex128, rng *rand.Rand) (env, envC []float64) {
	if rng != nil {
		dsp.AddComplexNoise(x, 1, rng)
	}
	y := d.chainEnvelope(x, rng)
	env = d.videoSample(nil, y, d.cfg.Oversample)
	if d.cfg.Mode == ModeFull {
		envC = d.videoSample(nil, y, d.cfg.Oversample/d.cfg.CorrOversample)
	}
	return env, envC
}

// RenderCorrEnvelope is RenderEnvelope at the correlator's higher sampling
// rate (ModeFull decodes from this stream).
func (d *Demodulator) RenderCorrEnvelope(dst []float64, trajHz []float64, rssDBm float64, rng *rand.Rand) []float64 {
	return d.renderEnvelope(dst, trajHz, rssDBm, rng, d.cfg.Oversample/d.cfg.CorrOversample)
}
