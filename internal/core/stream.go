package core

import (
	"sync"

	"saiyan/internal/ring"
)

// Continuous-stream reception: a segmenter (internal/stream) hunts preambles
// in an unbounded envelope capture and hands each extracted window to
// DecodeStreamWindow. Unlike ProcessFrame, nothing here renders — the
// envelope already exists (a recorded capture or a timeline render), exactly
// the situation of a gateway demodulating what its front end sampled.

// SamplesPerSymbol returns the (fractional) number of sampler-rate samples
// one symbol time occupies — the unit in which stream segmentation and
// window extraction measure the capture.
func (d *Demodulator) SamplesPerSymbol() float64 { return d.spbSamp }

// PrewarmAuto materializes every RSS-independent calibration artifact — the
// decode-bias cache and, in ModeFull, the correlation and detection
// templates — without calibrating thresholds. A prewarmed demodulator is the
// master a stream worker pool clones from: each clone then AutoCalibrates
// per extracted window (thresholds from the window's own preamble) without
// re-measuring the shared artifacts.
func (d *Demodulator) PrewarmAuto() {
	d.peakBias = d.nominalBias()
	if d.cfg.Mode == ModeFull {
		if d.templates == nil {
			d.buildTemplates(templateNominalRSS)
		}
		d.detectionTemplate()
	}
	// Materialize the quantized template bank too, so stream workers clone
	// a complete integer twin and per-window AutoCalibrate only re-anchors
	// thresholds.
	d.syncFx()
}

// maxPrewarmed bounds the Prewarmed memo. A process runs a handful of
// demodulator configs at once (a gateway one per rate); a sweep through
// more prewarms the oldest again when it comes back to it.
const maxPrewarmed = 16

// prewarmed is the Prewarmed memo: entries in insertion order, each
// numbered by serial, found by a scan that compares configs by value.
var prewarmed = struct {
	sync.Mutex
	entries ring.Ring[prewarmEntry]
	serial  uint64
}{entries: ring.New[prewarmEntry](maxPrewarmed)}

type prewarmEntry struct {
	cfg    Config // defaulted, with a private SAW filter
	serial uint64
	master *Demodulator
}

// Prewarmed returns the prewarmed master (PrewarmAuto) for cfg from a
// bounded process-wide memo, with the serial number of its memo entry,
// which no other entry ever shares. Configs equal field by field, with SAW
// filters equal in response and drift, share one master even when their
// SAW pointers differ. The master is shared and read-only: Clone it, and
// calibrate the clone. The memo keeps a clone of the prewarmed demodulator
// on a private copy of the SAW filter, so it retains none of the render
// scratch prewarming grew and a caller's later SetDrift cannot move it.
func Prewarmed(cfg Config) (*Demodulator, uint64, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, 0, err
	}
	prewarmed.Lock()
	defer prewarmed.Unlock()
	for i := 0; i < prewarmed.entries.Len(); i++ {
		if e := prewarmed.entries.At(i); sameConfig(e.cfg, cfg) {
			return e.master, e.serial, nil
		}
	}
	cfg.SAW = cfg.SAW.Clone()
	d, err := New(cfg)
	if err != nil {
		return nil, 0, err
	}
	d.PrewarmAuto()
	prewarmed.serial++
	e := prewarmEntry{cfg: cfg, serial: prewarmed.serial, master: d.Clone()}
	prewarmed.entries.Push(e)
	return e.master, e.serial, nil
}

// sameConfig compares two defaulted configs by value, SAW filters
// included.
func sameConfig(a, b Config) bool {
	sa, sb := a.SAW, b.SAW
	a.SAW, b.SAW = nil, nil
	return a == b && sa.Equal(sb)
}

// DecodeStreamWindow demodulates one frame window extracted from a
// continuous capture: env is the sampler-rate envelope beginning at
// (approximately) the first preamble symbol, envC the matching
// correlator-rate window in ModeFull (CorrOversample samples per env
// sample; nil otherwise), and nSymbols the expected payload length.
//
// The demodulator bootstraps its comparator thresholds from the window's
// own leading preamble via AutoCalibrate — the receiver of a continuous
// capture does not know the transmitter's distance, so the per-distance
// table of ProcessFrame is unavailable — then re-syncs inside the window
// via DetectFrameSync (anchored on the preamble's end, which survives a
// degraded leading chirp) and decodes the payload with the calibrated
// peakBias timing. It returns the decoded symbols and whether the preamble
// was confirmed. The symbol slice is freshly allocated, and nil when the
// preamble was missed.
func (d *Demodulator) DecodeStreamWindow(env, envC []float64, nSymbols int, agc AGCConfig) ([]int, bool, error) {
	return d.DecodeStreamWindowInto(nil, env, envC, nSymbols, agc)
}

// DecodeStreamWindowInto is DecodeStreamWindow decoding into dst's
// storage: the symbols it returns are dst[:nSymbols], and only a dst of
// smaller capacity is replaced by a new slice. With dst large enough it
// allocates nothing.
func (d *Demodulator) DecodeStreamWindowInto(dst []int, env, envC []float64, nSymbols int, agc AGCConfig) ([]int, bool, error) {
	if nSymbols < 0 {
		nSymbols = 0
	}
	// The segmenter aligned the window start to the detected preamble, so
	// the bootstrap region is signal, not gap.
	d.autoBootstrap(env, agc)
	payloadAt, ok := d.DetectFrameSync(env)
	if !ok {
		return nil, false, nil
	}
	return d.decodePayloadAt(dst, env, envC, payloadAt, nSymbols)
}

// decodePayloadAt decodes nSymbols payload symbols beginning at sampler
// index payloadAt, from the mode-appropriate stream (the correlator-rate
// envC in ModeFull, env otherwise), into dst[:nSymbols]; a nil dst, or one
// of smaller capacity, is replaced by a new slice. A payload start beyond
// the available samples reports a detected but undecodable frame.
func (d *Demodulator) decodePayloadAt(dst []int, env, envC []float64, payloadAt, nSymbols int) ([]int, bool, error) {
	if d.cfg.Mode == ModeFull {
		env, payloadAt = envC, payloadAt*d.cfg.CorrOversample
	}
	if payloadAt >= len(env) {
		return nil, true, nil
	}
	if dst == nil || cap(dst) < nSymbols {
		dst = make([]int, nSymbols)
	}
	dst = dst[:nSymbols]
	d.decodePayload(dst, env[payloadAt:])
	return dst, true, nil
}
