// Package core implements the Saiyan demodulator — the paper's primary
// contribution. It composes the analog front end (SAW frequency-amplitude
// transformation, envelope detection, optional cyclic-frequency shifting)
// with the double-threshold comparator, low-rate voltage sampler, and the
// peak-tracking / correlation decoders, plus tag-side preamble detection.
//
// The demodulator operates on instantaneous-frequency trajectories (what
// the antenna sees) and a received signal strength from the link budget;
// everything downstream of the antenna is simulated, not parameterized —
// see DESIGN.md for the substitution argument.
package core

import (
	"fmt"

	"saiyan/internal/analog"
	"saiyan/internal/lora"
)

// Mode selects the demodulator variant evaluated in the paper's ablation
// (Figure 25).
type Mode int

const (
	// ModeVanilla is Section 2: SAW -> LNA -> envelope detector ->
	// double-threshold comparator -> counter.
	ModeVanilla Mode = iota
	// ModeFreqShift adds the cyclic-frequency-shifting circuit of
	// Section 3.1 (~11 dB SNR gain).
	ModeFreqShift
	// ModeFull additionally decodes by template correlation
	// (Section 3.2) instead of the comparator.
	ModeFull
)

// String names the mode the way the ablation figure does.
func (m Mode) String() string {
	switch m {
	case ModeVanilla:
		return "vanilla"
	case ModeFreqShift:
		return "freq-shift"
	case ModeFull:
		return "full"
	}
	return "unknown"
}

// Datapath selects the arithmetic of the payload decode stage.
type Datapath int

const (
	// DatapathFloat is the float64 reference decoder.
	DatapathFloat Datapath = iota
	// DatapathFixed decodes with the Q1.15 integer MCU datapath
	// (internal/fxp): the sampler envelope is quantized through an ADC at
	// Config.ADCBits and both decoders run in saturating integer
	// arithmetic with per-operation cycle accounting, modeling the
	// prototype's 19.6 uW MCU / 2 uW ASIC digital logic (Section 4.3).
	DatapathFixed
)

// String names the datapath for reports.
func (dp Datapath) String() string {
	switch dp {
	case DatapathFloat:
		return "float64"
	case DatapathFixed:
		return "fxp"
	}
	return "unknown"
}

// Config assembles a Saiyan demodulator.
type Config struct {
	Params lora.Params
	Mode   Mode

	// Datapath selects the float64 reference decoder or the fixed-point
	// MCU datapath for the payload decode stage. Rendering, calibration,
	// and preamble detection model the analog chain and stay float in
	// either case; the datapaths diverge at the ADC.
	Datapath Datapath

	// ADCBits is the quantizer bit depth feeding DatapathFixed, 2..15.
	// Default 12 (a SAR ADC class an MCU like the Apollo2 integrates).
	// Validated regardless of datapath so a config stays switchable;
	// only DatapathFixed consumes it.
	ADCBits int

	// SampleRateMultiplier scales the sampler rate relative to BW/2^(SF-K).
	// The paper's conservative default is 3.2 (Section 2.3); Table 1 sweeps
	// this to find the minimum workable value.
	SampleRateMultiplier float64

	// Oversample is the ratio of the internal analog simulation rate to the
	// sampler rate. Default 16.
	Oversample int

	// CorrOversample is the correlator's sampling-rate advantage over the
	// comparator sampler in ModeFull. Default 4.
	CorrOversample int

	SAW      *analog.SAWFilter
	LNA      analog.LNA
	Envelope analog.EnvelopeDetector
	IFAmp    analog.IFAmplifier

	// ClockPhaseError is the residual phase misalignment of CLKout after
	// the delay line (radians); the paper tunes it to ~0 (cos(dphi)~1).
	ClockPhaseError float64

	// ThresholdGapDB is G = 20*lg(Amax/U_H), the headroom between the peak
	// amplitude and the high threshold (Section 4.1). Default 5 dB of
	// envelope-power headroom, covering the sampling-phase variability of
	// the sampled peak.
	ThresholdGapDB float64

	// VideoCutoffFrac sets the post-detection low-pass cutoff as a fraction
	// of the sampler rate. Default 0.5 (Nyquist of the sampler).
	VideoCutoffFrac float64
}

// DefaultConfig returns the paper's full system at its Section 5 defaults.
func DefaultConfig() Config {
	return Config{
		Params:               lora.DefaultParams(),
		Mode:                 ModeFull,
		SampleRateMultiplier: 3.2,
		Oversample:           16,
		CorrOversample:       4,
		SAW:                  analog.PaperSAW(),
		LNA:                  analog.DefaultLNA(),
		Envelope:             analog.DefaultEnvelopeDetector(),
		IFAmp:                analog.DefaultIFAmplifier(),
		ThresholdGapDB:       5,
		VideoCutoffFrac:      0.5,
	}
}

// Defaulted returns c with its zero fields defaulted, or the error New
// would return for it, without building a demodulator. New validates
// through it, so the two cannot disagree.
func (c Config) Defaulted() (Config, error) {
	c, _, err := c.defaulted()
	return c, err
}

// defaulted fills c's zero fields, validates it and returns the shared
// front-end design it renders through. The fixed-point decoder's own
// checks (valid params, at least one sample per symbol, decimations of at
// least 1, an ADC depth in [2, 15]) follow from withDefaults' bounds, so
// New's fxp.NewDecoder cannot reject a config that passes here.
func (c Config) defaulted() (Config, *frontEnd, error) {
	c, err := c.withDefaults()
	if err != nil {
		return c, nil, err
	}
	fe, err := frontEndFor(c.frontEndKey())
	return c, fe, err
}

// frontEndKey names the shared front-end design a defaulted c renders
// through.
func (c Config) frontEndKey() frontEndKey {
	fsSim := c.SimRateHz()
	k := frontEndKey{fsSim: fsSim, cutoff: c.VideoCutoffFrac * c.SamplerRateHz()}
	if c.Mode != ModeVanilla {
		// The MCU clock runs at fsSim/8; squaring the mixed signal lands
		// the IF at twice the clock, fsSim/4 (see frontEnd).
		k.ifHz = fsSim / 4
		k.phaseErr = c.ClockPhaseError
		k.gainDB = c.IFAmp.GainDB
	}
	return k
}

// withDefaults fills zero fields and validates.
func (c Config) withDefaults() (Config, error) {
	if err := c.Params.Validate(); err != nil {
		return c, err
	}
	if c.SampleRateMultiplier == 0 {
		c.SampleRateMultiplier = 3.2
	}
	if c.SampleRateMultiplier < 0.5 {
		return c, fmt.Errorf("core: sample rate multiplier %g below 0.5 cannot resolve symbols", c.SampleRateMultiplier)
	}
	if c.Oversample == 0 {
		c.Oversample = 16
	}
	if c.Oversample < 2 {
		return c, fmt.Errorf("core: oversample %d < 2", c.Oversample)
	}
	if c.CorrOversample == 0 {
		c.CorrOversample = 4
	}
	if c.CorrOversample < 1 || c.CorrOversample > c.Oversample {
		return c, fmt.Errorf("core: correlator oversample %d outside [1, %d]", c.CorrOversample, c.Oversample)
	}
	if c.Oversample%c.CorrOversample != 0 {
		return c, fmt.Errorf("core: oversample %d not divisible by correlator oversample %d", c.Oversample, c.CorrOversample)
	}
	if c.Datapath != DatapathFloat && c.Datapath != DatapathFixed {
		return c, fmt.Errorf("core: unknown datapath %d", c.Datapath)
	}
	if c.ADCBits == 0 {
		c.ADCBits = 12
	}
	if c.ADCBits < 2 || c.ADCBits > 15 {
		return c, fmt.Errorf("core: ADC bit depth %d outside [2, 15]", c.ADCBits)
	}
	if c.SAW == nil {
		c.SAW = analog.PaperSAW()
	}
	if c.LNA == (analog.LNA{}) {
		c.LNA = analog.DefaultLNA()
	}
	if c.Envelope == (analog.EnvelopeDetector{}) {
		c.Envelope = analog.DefaultEnvelopeDetector()
	}
	if c.IFAmp == (analog.IFAmplifier{}) {
		c.IFAmp = analog.DefaultIFAmplifier()
	}
	if c.ThresholdGapDB == 0 {
		c.ThresholdGapDB = 5
	}
	if c.VideoCutoffFrac == 0 {
		c.VideoCutoffFrac = 0.5
	}
	if c.VideoCutoffFrac < 0.05 || c.VideoCutoffFrac > 2 {
		return c, fmt.Errorf("core: video cutoff fraction %g outside [0.05, 2]", c.VideoCutoffFrac)
	}
	return c, nil
}

// SamplerRateHz is the comparator sampling rate for the configuration.
func (c Config) SamplerRateHz() float64 {
	return c.SampleRateMultiplier * c.Params.BandwidthHz / float64(c.Params.AlphabetStride())
}

// SimRateHz is the internal analog simulation rate.
func (c Config) SimRateHz() float64 {
	return c.SamplerRateHz() * float64(c.Oversample)
}
