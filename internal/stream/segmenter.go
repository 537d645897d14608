// Package stream turns a continuous envelope capture into demodulation
// work: a Segmenter hunts LoRa preambles across arbitrarily-chunked
// envelope deliveries — carrier-sense gate, preamble detection, then
// symbol-aligned window extraction — and a Receiver claims each window's
// scheduled frame and hands it on as a stream-decode job. Both receive
// paths run on a Receiver: a Source queues its jobs for the concurrent
// pipeline, and the gateway submits each one from the emit callback, so
// segmentation (one goroutine, cheap) overlaps demodulation (worker pool).
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
	"saiyan/internal/lora"
	"saiyan/internal/obs"
	"saiyan/internal/ring"
)

// Config assembles a stream segmenter.
type Config struct {
	// Demod is the demodulator chain the capture was sampled by; the
	// segmenter's hunt demodulator and the pipeline's decode workers must
	// share it for windows to line up.
	Demod core.Config

	// PayloadSymbols is the payload length of hunted frames (fixed-length
	// downlink schedule, as in the paper's Section 5 setup). A Receiver
	// takes it from its capture when 0 and rejects a mismatch; a bare
	// Segmenter defaults it to lora.DefaultPayloadSymbols.
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
	// Env is the sampler-rate window (preamble through payload end,
	// possibly shorter at the end of the capture). It is a copy out of the
	// carry buffer, into a buffer the segmenter lends: it stays valid until
	// it is handed back through Release, and for good if it never is.
	Env []float64
	// EnvC is the matching correlator-rate window (ModeFull; nil otherwise),
	// lent and handed back together with Env.
	EnvC []float64
	// NSymbols is the expected payload length.
	NSymbols int
	// Release hands Env and EnvC back to the segmenter, which reuses them
	// for a later window; neither may be read after. Call it at most once
	// per window. The pipeline calls it (as Job.Release) once the window
	// is decoded; a window never handed back is simply garbage collected.
	Release func(env, envC []float64)
}

// Segmenter carries preamble-hunt state across chunk deliveries. Feed it
// with Push (any chunk sizes, including sizes that split frames) and finish
// with Flush; every detected frame is handed to the emit callback in
// capture order. A Segmenter is not safe for concurrent use.
//
// The carry buffer is a live view into a backing array sized once by
// NewSegmenter: Push copies each sampler-rate chunk into it once, and
// consumed samples are dropped by moving the view's head, not by shifting
// the samples. The live tail moves to the front of the array only when a
// chunk does not fit behind it. The correlator-rate chunk, CorrOversample
// times the size, is read in place while Push scans: only extract reads it, and only
// what is still live after the scan is copied into its carry buffer, so
// of idle air at that rate only the hunt's overlap tail is copied. Emitted windows are
// copies into buffers from a bounded free list that the pipeline refills
// through Window.Release, so they outlive the carry buffer.
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

	buf     []float64 // sampler-rate samples not yet consumed: a view into store
	bufC    []float64 // correlator-rate samples carried from earlier pushes: a view into storeC
	chunkC  []float64 // the pushed chunk's correlator-rate samples, live after bufC (during Push only)
	store   []float64 // backing array of buf
	storeC  []float64 // backing array of bufC
	base    int64     // absolute sampler index of buf[0]
	pending int       // detected preamble start awaiting a full window (-1 = none)

	free    *windowFree               // window buffers handed back by Release
	release func(env, envC []float64) // free.put, bound once

	samples int64 // sampler-rate samples pushed

	// Observability counters (nil-safe handles; nil when Config.Metrics is
	// unset). The segmenter is single-goroutine, so plain counters suffice.
	scans    *obs.Counter // carrier-sense hunt scans
	emitted  *obs.Counter // windows handed to emit
	rejected *obs.Counter // carrier sensed but no preamble locked
	carries  *obs.Counter // chunk deliveries arriving with a frame pending
}

// hunts memoizes the hunt calibrations NewSegmenter makes, by exact key:
// the core.Prewarmed entry of the demodulator config, the bits of the
// hunt RSS and the seed. An entry retains about 140 B.
var hunts = ring.NewMemo[huntKey, core.Calibration](maxHunts)

const maxHunts = 1024

type huntKey struct{ demod, rss, seed uint64 }

// NewSegmenter builds the hunt demodulator: a clone of the config's
// core.Prewarmed master with the memoized hunt calibration installed (a
// miss runs only CalibrateScalars, Calibrate's scalar half). The hunt only
// gates and locates preambles, reading the calibration scalars and the
// detection template, which is rendered at the nominal level whatever the
// hunt RSS; so the clone hunts as a calibrated one would. The pipeline's
// workers decode the windows.
func NewSegmenter(cfg Config, emit func(Window) error) (*Segmenter, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if emit == nil {
		return nil, fmt.Errorf("stream: nil emit callback")
	}
	master, entry, err := core.Prewarmed(cfg.Demod)
	if err != nil {
		return nil, err
	}
	cal := hunts.Get(huntKey{entry, math.Float64bits(cfg.HuntRSSDBm), cfg.Seed}, func() core.Calibration {
		return master.Clone().CalibrateScalars(cfg.HuntRSSDBm, dsp.NewRand(cfg.Seed^0x73656d656e746572, 0))
	})
	d := master.Clone()
	d.SetCalibration(cal)
	s := &Segmenter{cfg: cfg, d: d, emit: emit, pending: -1}
	s.spb = d.SamplesPerSymbol()
	// Detection markers must rise clear of the noise floor: normalized
	// correlation alone would lock onto noise patterns in idle air.
	s.gate = cal.Baseline + 4*cal.NoiseSigma
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
	// Between pushes less than a hunt window plus a frame stays live; as
	// much again of slack takes chunks up to that size without growing,
	// and keeps front compactions to a few per frame length pushed.
	s.store = make([]float64, 2*(s.huntLen+s.frameLen))
	s.buf = s.store[:0]
	if s.ratio > 0 {
		s.storeC = make([]float64, len(s.store)*s.ratio)
		s.bufC = s.storeC[:0]
	}
	s.free = &windowFree{bufs: make(chan windowBufs, freeWindows), envLen: s.frameLen, envCLen: s.frameLen * s.ratio}
	s.release = s.free.put
	s.scans = cfg.Metrics.Counter("saiyan_stream_scans_total", "carrier-sense scans over the hunt window")
	s.emitted = cfg.Metrics.Counter("saiyan_stream_windows_emitted_total", "frame windows extracted and emitted")
	s.rejected = cfg.Metrics.Counter("saiyan_stream_windows_rejected_total", "hunt windows with carrier but no preamble lock")
	s.carries = cfg.Metrics.Counter("saiyan_stream_carries_total", "chunk deliveries that arrived with a frame pending across the boundary")
	return s, nil
}

// NoiseStats reports the hunt demodulator's calibrated envelope noise
// statistics: the no-signal baseline and the noise standard deviation the
// detection gate is derived from. Gateways surface these per ingest
// channel.
func (s *Segmenter) NoiseStats() (baseline, sigma float64) {
	c := s.d.Calibration()
	return c.Baseline, c.NoiseSigma
}

// SamplesIn reports how many sampler-rate samples have been pushed.
func (s *Segmenter) SamplesIn() int64 { return s.samples }

// Push appends one delivery chunk (envC may be nil outside ModeFull) and
// scans as far as the buffered samples allow. Frames straddling the chunk
// boundary stay pending until the rest arrives. The sampler-rate chunk is
// copied once, into the carry buffer; of envC only what the scan leaves
// live is copied, and neither chunk is referenced after Push returns.
// Push allocates only when a chunk does not fit in a carry buffer even
// after the live tail moves to the front.
//
//saiyan:hotpath
func (s *Segmenter) Push(env, envC []float64) error {
	if s.pending >= 0 {
		s.carries.Inc()
	}
	s.store, s.buf = carry(s.store, s.buf, env)
	s.samples += int64(len(env))
	if s.ratio == 0 {
		return s.scan(false)
	}
	s.chunkC = envC
	err := s.scan(false)
	s.storeC, s.bufC = carry(s.storeC, s.bufC, s.chunkC)
	s.chunkC = nil
	return err
}

// carry appends x to live, a view into store. When x does not fit behind
// live, live first moves to the front of store, and store grows only if
// even that leaves too little room. It returns the new store and view.
//
//saiyan:hotpath
func carry(store, live, x []float64) ([]float64, []float64) {
	if len(x) <= cap(live)-len(live) {
		return store, append(live, x...)
	}
	n := len(live)
	if n+len(x) > len(store) {
		// Keep the slack after the chunk, so a stream of chunks this large
		// does not grow the buffer again.
		store = make([]float64, n+len(x)+len(store)) //lint:allow hotalloc amortized: runs only when a chunk outgrows the buffer
	}
	copy(store, live)
	return store, append(store[:n], x...)
}

// Flush scans whatever remains after the final chunk, emitting a trailing
// partial window if a preamble was already locked (its decode may come up
// short — the capture simply ended mid-frame).
func (s *Segmenter) Flush() error {
	return s.scan(true)
}

// advance drops n consumed samples off the buffer head by re-slicing.
//
//saiyan:hotpath
func (s *Segmenter) advance(n int) {
	if n <= 0 {
		return
	}
	if n > len(s.buf) {
		n = len(s.buf)
	}
	s.buf = s.buf[n:]
	if s.ratio > 0 {
		// The correlator-rate samples run on from bufC into chunkC.
		c := n * s.ratio
		k := min(c, len(s.bufC))
		s.bufC = s.bufC[k:]
		s.chunkC = s.chunkC[min(c-k, len(s.chunkC)):]
	}
	s.base += int64(n)
}

// extract emits the window starting at buffer offset start and consumes
// everything through its end. The window's samples are copied into
// buffers from the free list, so extract allocates only when no window
// has been handed back.
//
//saiyan:hotpath
func (s *Segmenter) extract(start int) error {
	end := min(start+s.frameLen, len(s.buf))
	env, envC := s.free.get()
	w := Window{
		Start:    s.base + int64(start),
		Env:      env[:copy(env, s.buf[start:end])],
		NSymbols: s.cfg.PayloadSymbols,
		Release:  s.release,
	}
	if s.ratio > 0 {
		// The window's correlator-rate span [lo, hi) runs on from bufC into
		// chunkC.
		nb := len(s.bufC)
		lo := min(start*s.ratio, nb+len(s.chunkC))
		hi := min(end*s.ratio, nb+len(s.chunkC))
		n := copy(envC, s.bufC[min(lo, nb):min(hi, nb)])
		n += copy(envC[n:], s.chunkC[max(lo-nb, 0):max(hi-nb, 0)])
		w.EnvC = envC[:n]
	}
	s.pending = -1
	s.emitted.Inc()
	if err := s.emit(w); err != nil {
		return err
	}
	s.advance(end)
	return nil
}

// freeWindows bounds a segmenter's free list of window buffers: enough
// for the windows a pipeline holds queued and in decode, and at most a
// few hundred kilobytes per segmenter at default payload lengths.
const freeWindows = 32

// windowFree is a segmenter's bounded free list of window buffers. The
// segmenter takes from it in extract, on its own goroutine; pipeline
// workers hand buffers back through Window.Release.
type windowFree struct {
	bufs            chan windowBufs // capacity freeWindows
	envLen, envCLen int             // buffer capacities: one frame window at each rate
}

// windowBufs is one window's pair of buffers, at full capacity.
type windowBufs struct{ env, envC []float64 }

// get returns a full-length pair of window buffers, reused when one has
// been handed back and otherwise cut from one new allocation (envC is
// empty outside ModeFull).
//
//saiyan:hotpath
func (f *windowFree) get() (env, envC []float64) {
	select {
	case b := <-f.bufs:
		return b.env, b.envC
	default:
	}
	buf := make([]float64, f.envLen+f.envCLen) //lint:allow hotalloc only until windows are handed back, and once per window for a consumer that keeps them
	return buf[:f.envLen:f.envLen], buf[f.envLen:]
}

// put takes a window's buffers back for reuse. Buffers of another shape
// are ignored, and so is the pair once the list is full: the garbage
// collector takes those.
//
//saiyan:hotpath
func (f *windowFree) put(env, envC []float64) {
	if cap(env) != f.envLen || cap(envC) != f.envCLen {
		return
	}
	select {
	case f.bufs <- windowBufs{env[:cap(env)], envC[:cap(envC)]}:
	default:
	}
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
		if len(s.buf) == 0 || len(s.buf) < s.huntLen && !flush {
			return nil
		}
		hunt := min(s.huntLen, len(s.buf))
		s.scans.Inc()
		if s.d.CarrierSense(s.buf[:hunt]) {
			start, ok := s.d.DetectPreambleGated(s.buf[:hunt], s.gate)
			if ok {
				s.pending = start
				continue
			}
			// Carrier but no preamble start inside the window: mid-frame
			// energy from a missed or colliding packet.
			s.rejected.Inc()
		}
		// Idle air or a rejected window: discard the hunt window, minus
		// one preamble of overlap so a frame starting near the boundary
		// stays intact.
		if drop := hunt - s.preambLen; drop > 0 {
			s.advance(drop)
			continue
		}
		if flush {
			s.advance(len(s.buf))
		}
		return nil
	}
}
