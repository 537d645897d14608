// Package stream turns a continuous envelope capture into demodulation
// work: a Segmenter hunts LoRa preambles across arbitrarily-chunked
// envelope deliveries — carrier-sense gate, preamble detection, then
// symbol-aligned window extraction — and a Source feeds the extracted
// windows into the concurrent pipeline as stream-decode jobs, so
// segmentation (single goroutine, cheap) overlaps demodulation (worker
// pool, expensive).
//
// This is the receive path the paper's Section 3.2 packet detection
// implies and the per-frame pipeline skipped: nothing here knows frame
// boundaries in advance. Recorded-capture receivers (LoRea-style gateways)
// work exactly this way — the radio front end delivers samples in chunks,
// frames straddle chunk boundaries, and idle air dominates the timeline.
package stream

import (
	"fmt"
	"math"

	"saiyan/internal/core"
	"saiyan/internal/dsp"
	"saiyan/internal/flight"
	"saiyan/internal/lora"
	"saiyan/internal/obs"
)

// Config assembles a stream segmenter.
type Config struct {
	// Demod is the demodulator chain the capture was sampled by; the
	// segmenter's hunt demodulator and the pipeline's decode workers must
	// share it for windows to line up.
	Demod core.Config

	// PayloadSymbols is the payload length of hunted frames (fixed-length
	// downlink schedule, as in the paper's Section 5 setup). Default
	// lora.DefaultPayloadSymbols.
	PayloadSymbols int

	// HuntRSSDBm calibrates the hunt demodulator's comparator thresholds
	// and noise baseline. Detection in ModeFull is normalized correlation
	// (threshold-free), so only the carrier-sense baseline and the
	// comparator-mode detectors depend on it. Default -60 dBm.
	HuntRSSDBm float64

	// Seed drives the hunt demodulator's calibration noise.
	Seed uint64

	// Metrics, when non-nil, receives the segmenter's observability
	// counters: carrier-sense scans, windows emitted and rejected, and
	// cross-chunk pending carries. Write-only; segmentation decisions
	// never read them back.
	Metrics *obs.Registry

	// Flight, when non-nil, receives a segment-stage flight span for
	// every matched window, and matched jobs leave the source stamped
	// with their trace ID. Write-only, like Metrics: segmentation never
	// reads the recorder back. Segmentation runs on the submission
	// goroutine, so it writes the control-plane shard 0.
	Flight *flight.Recorder
	// FlightEpoch and FlightChannel locate this capture in the
	// deployment schedule; together with (tag, seq) they derive each
	// frame's trace ID. Standalone captures leave them zero.
	FlightEpoch   int
	FlightChannel int
}

// withDefaults fills zero fields and validates.
func (c Config) withDefaults() (Config, error) {
	if c.PayloadSymbols == 0 {
		c.PayloadSymbols = lora.DefaultPayloadSymbols
	}
	if c.PayloadSymbols < 1 {
		return c, fmt.Errorf("stream: payload length %d < 1", c.PayloadSymbols)
	}
	if c.HuntRSSDBm == 0 {
		c.HuntRSSDBm = -60
	}
	return c, nil
}

// Window is one extracted frame candidate: a symbol-aligned cut of the
// capture beginning at the detected preamble start.
type Window struct {
	// Start is the absolute sampler-rate index of Env[0] in the capture.
	Start int64
	// Env is the sampler-rate window (owned copy; preamble through payload
	// end, possibly shorter at the end of the capture).
	Env []float64
	// EnvC is the matching correlator-rate window (ModeFull; nil otherwise).
	EnvC []float64
	// NSymbols is the expected payload length.
	NSymbols int
}

// Segmenter carries preamble-hunt state across chunk deliveries. Feed it
// with Push (any chunk sizes, including sizes that split frames) and finish
// with Flush; every detected frame is handed to the emit callback in
// capture order. A Segmenter is not safe for concurrent use.
type Segmenter struct {
	cfg  Config
	d    *core.Demodulator
	emit func(Window) error

	spb       float64 // sampler-rate samples per symbol
	ratio     int     // EnvC samples per Env sample (0 outside ModeFull)
	frameLen  int     // full frame window length in sampler samples
	huntLen   int     // detection window length in sampler samples
	preambLen int     // preamble length in sampler samples
	gate      float64 // minimum envelope excursion for a detection marker

	buf     []float64 // sampler-rate samples not yet consumed
	bufC    []float64 // correlator-rate counterpart
	base    int64     // absolute sampler index of buf[0]
	pending int       // detected preamble start awaiting a full window (-1 = none)

	windows int // frames emitted so far
	samples int64

	// Observability counters (nil-safe handles; nil when Config.Metrics is
	// unset). The segmenter is single-goroutine, so plain counters suffice.
	scans    *obs.Counter // carrier-sense hunt scans
	emitted  *obs.Counter // windows handed to emit
	rejected *obs.Counter // carrier sensed but no preamble locked
	carries  *obs.Counter // chunk deliveries arriving with a frame pending
}

// NewSegmenter builds and calibrates the hunt demodulator.
func NewSegmenter(cfg Config, emit func(Window) error) (*Segmenter, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if emit == nil {
		return nil, fmt.Errorf("stream: nil emit callback")
	}
	d, err := core.New(cfg.Demod)
	if err != nil {
		return nil, err
	}
	// The hunt demodulator only gates (CarrierSense) and locates preambles
	// (DetectPreamble); windows are decoded by the pipeline's own workers.
	d.Calibrate(cfg.HuntRSSDBm, dsp.NewRand(cfg.Seed^0x73656d656e746572, 0))
	s := &Segmenter{cfg: cfg, d: d, emit: emit, pending: -1}
	s.spb = d.SamplesPerSymbol()
	// Detection markers must rise clear of the noise floor: normalized
	// correlation alone would lock onto noise patterns in idle air.
	baseline, sigma := d.NoiseStats()
	s.gate = baseline + 4*sigma
	if d.Config().Mode == core.ModeFull {
		s.ratio = d.Config().CorrOversample
	}
	frameSymbols := float64(lora.PreambleUpchirps) + lora.SyncSymbols + float64(cfg.PayloadSymbols)
	// One guard symbol at the tail keeps the last payload window whole when
	// detection lands a sample or two late.
	s.frameLen = int(math.Ceil((frameSymbols + 1) * s.spb))
	s.preambLen = int(math.Ceil(float64(lora.PreambleUpchirps) * s.spb))
	// The hunt window must hold a full preamble wherever it starts inside
	// the window's leading stride, plus margin for the detector's periodic
	// peak run.
	s.huntLen = s.preambLen + int(math.Ceil(6*s.spb))
	s.scans = cfg.Metrics.Counter("saiyan_stream_scans_total", "carrier-sense scans over the hunt window")
	s.emitted = cfg.Metrics.Counter("saiyan_stream_windows_emitted_total", "frame windows extracted and emitted")
	s.rejected = cfg.Metrics.Counter("saiyan_stream_windows_rejected_total", "hunt windows with carrier but no preamble lock")
	s.carries = cfg.Metrics.Counter("saiyan_stream_carries_total", "chunk deliveries that arrived with a frame pending across the boundary")
	return s, nil
}

// Windows reports how many frame windows have been emitted.
func (s *Segmenter) Windows() int { return s.windows }

// NoiseStats reports the hunt demodulator's calibrated envelope noise
// statistics (core.Demodulator.NoiseStats): the no-signal baseline and the
// noise standard deviation the detection gate is derived from. Gateways
// surface these per ingest channel.
func (s *Segmenter) NoiseStats() (baseline, sigma float64) { return s.d.NoiseStats() }

// SamplesIn reports how many sampler-rate samples have been pushed.
func (s *Segmenter) SamplesIn() int64 { return s.samples }

// Push appends one delivery chunk (envC may be nil outside ModeFull) and
// scans as far as the buffered samples allow. Frames straddling the chunk
// boundary stay pending until the rest arrives.
func (s *Segmenter) Push(env, envC []float64) error {
	if s.pending >= 0 {
		s.carries.Inc()
	}
	s.buf = append(s.buf, env...)
	s.bufC = append(s.bufC, envC...)
	s.samples += int64(len(env))
	return s.scan(false)
}

// Flush scans whatever remains after the final chunk, emitting a trailing
// partial window if a preamble was already locked (its decode may come up
// short — the capture simply ended mid-frame).
func (s *Segmenter) Flush() error {
	return s.scan(true)
}

// advance drops n consumed samples off the buffer head.
func (s *Segmenter) advance(n int) {
	if n <= 0 {
		return
	}
	if n > len(s.buf) {
		n = len(s.buf)
	}
	s.buf = append(s.buf[:0], s.buf[n:]...)
	if s.ratio > 0 {
		nc := min(n*s.ratio, len(s.bufC))
		s.bufC = append(s.bufC[:0], s.bufC[nc:]...)
	}
	s.base += int64(n)
}

// extract emits the window starting at buffer offset start and consumes
// everything through its end.
func (s *Segmenter) extract(start int) error {
	end := min(start+s.frameLen, len(s.buf))
	w := Window{
		Start:    s.base + int64(start),
		Env:      append([]float64(nil), s.buf[start:end]...),
		NSymbols: s.cfg.PayloadSymbols,
	}
	if s.ratio > 0 {
		cLo := min(start*s.ratio, len(s.bufC))
		cHi := min(end*s.ratio, len(s.bufC))
		w.EnvC = append([]float64(nil), s.bufC[cLo:cHi]...)
	}
	s.windows++
	s.pending = -1
	s.emitted.Inc()
	if err := s.emit(w); err != nil {
		return err
	}
	s.advance(end)
	return nil
}

// scan is the hunt loop: carrier-sense gate over the leading hunt window,
// preamble detection when the gate opens, then window extraction once the
// full frame is buffered.
//
//saiyan:hotpath
func (s *Segmenter) scan(flush bool) error {
	for {
		if s.pending >= 0 {
			// A preamble is locked; wait for the full window.
			if len(s.buf) >= s.pending+s.frameLen {
				if err := s.extract(s.pending); err != nil {
					return err
				}
				continue
			}
			if !flush {
				return nil
			}
			// Capture ended mid-frame: emit what exists if at least the
			// preamble and sync made it, else drop the tail.
			if len(s.buf)-s.pending >= int(math.Ceil((lora.PreambleUpchirps+lora.SyncSymbols)*s.spb)) {
				return s.extract(s.pending)
			}
			s.advance(len(s.buf))
			return nil
		}
		if len(s.buf) < s.huntLen {
			if !flush || len(s.buf) == 0 {
				return nil
			}
		}
		hunt := min(s.huntLen, len(s.buf))
		if hunt == 0 {
			return nil
		}
		s.scans.Inc()
		if !s.d.CarrierSense(s.buf[:hunt]) {
			// Idle air: discard the hunt window, minus one preamble of
			// overlap so a frame starting near the boundary stays intact.
			keep := s.preambLen
			if drop := hunt - keep; drop > 0 {
				s.advance(drop)
				continue
			}
			if flush {
				s.advance(len(s.buf))
			}
			return nil
		}
		start, ok := s.d.DetectPreambleGated(s.buf[:hunt], s.gate)
		if !ok {
			s.rejected.Inc()
			// Carrier but no preamble start inside the window: mid-frame
			// energy from a missed or colliding packet. Slide forward,
			// keeping a preamble of overlap.
			keep := s.preambLen
			if drop := hunt - keep; drop > 0 {
				s.advance(drop)
				continue
			}
			if flush {
				s.advance(len(s.buf))
			}
			return nil
		}
		s.pending = start
	}
}
