// Package pipeline provides a concurrent, streaming demodulation engine: it
// fans downlink frames from many simulated tags out to a pool of
// core.Demodulator workers and aggregates throughput and error statistics.
//
// The engine is the substrate for gateway-scale workloads — hundreds of
// backscatter tags across channels and distances, demodulated as fast as
// the hardware allows — while preserving the simulator's bit-for-bit
// determinism: for a fixed Config.Seed, the decoded symbol stream is
// identical regardless of worker count, because every frame draws noise
// from its own RNG shard (dsp.NewRand(seed, frameSeq)) rather than from a
// stream owned by whichever worker happened to pick it up.
//
// Calibration follows the prototype's per-distance threshold table
// (Section 4.1): received signal strengths are quantized to a 1 dB grid, a
// master demodulator is calibrated once per quantum in a shared cache, and
// each worker clones the master so frames from the same distance ring
// never pay calibration twice.
//
// Workloads arrive through the pull-based Source interface (Run): live
// simulated traffic (NewTagSetSource) and recorded traces
// (NewTraceSource / Replay) demodulate through the identical machinery,
// and any run can capture what it demodulated with the Record tee.
package pipeline

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"saiyan/internal/core"
	"saiyan/internal/dsp"
	"saiyan/internal/flight"
	"saiyan/internal/lora"
	"saiyan/internal/obs"
	"saiyan/internal/trace"
)

// Config assembles a demodulation pipeline.
type Config struct {
	// Demod configures every worker's demodulator.
	Demod core.Config

	// Workers is the demodulator pool size. Default: runtime.GOMAXPROCS(0).
	Workers int

	// DiscardResults drops per-frame results and keeps only Stats; use for
	// throughput measurements where the aggregate is the product.
	DiscardResults bool

	// Seed drives every RNG shard in the pipeline: per-frame noise, and
	// per-quantum calibration.
	Seed uint64

	// AGC tunes the online threshold estimator used for stream jobs
	// (Job.Env): extracted windows carry no distance information, so each
	// worker bootstraps thresholds from the window's own preamble. The zero
	// value uses core.DefaultAGCConfig.
	AGC core.AGCConfig

	// Metrics, when non-nil, receives the pipeline's observability series:
	// submit queue depth, batch and per-frame decode latency, scratch-pool
	// churn, and the fxp cycle distribution. Instrumentation is write-only
	// — nothing is read back into a decode decision — so a fixed seed
	// yields an identical symbol stream at any worker count with metrics
	// on or off. Histograms are sharded per worker; the decode hot path
	// stays zero-alloc.
	Metrics *obs.Registry

	// Flight, when non-nil, receives a decode-stage flight span for every
	// processed job that carries a trace ID (Job.Trace != 0), and trace
	// IDs ride into the latency/cycle histogram buckets as exemplars.
	// Write-only like Metrics: nothing is read back into a decode, so the
	// symbol stream is identical with the recorder on or off. Worker w
	// writes shard 1+w (see flight.Options.Shards).
	Flight *flight.Recorder
}

// Per-worker channel sizes (the batch queue between Submit and the
// workers, and the results buffer) and the calibration grid.
const (
	queuePerWorker   = 2
	resultsPerWorker = 4
	// calibrationQuantumDB is the per-distance threshold table's grid: RSS
	// values within one quantum share a calibration, as the prototype
	// stores a discrete per-distance table rather than recalibrating.
	calibrationQuantumDB = 1
)

// withDefaults fills zero fields and validates.
func (c Config) withDefaults() (Config, error) {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		return c, fmt.Errorf("pipeline: workers %d < 1", c.Workers)
	}
	return c, nil
}

// DefaultConfig returns a pipeline over the paper's default demodulator
// with one worker per CPU.
func DefaultConfig() Config {
	return Config{Demod: core.DefaultConfig()}
}

// Job is one downlink frame awaiting demodulation. Exactly one of Frame
// (render-and-demodulate: the pipeline synthesizes the envelope from the
// transmitted symbols and the RSS) or Env (stream decode: a segmenter
// already extracted the envelope window from a continuous capture) must be
// set.
type Job struct {
	// Tag identifies the transmitting tag; the pipeline passes it through
	// to the Result untouched.
	Tag int
	// Frame is the downlink frame as transmitted.
	Frame *lora.Frame
	// RSSDBm is the received signal strength at the tag.
	RSSDBm float64
	// Env, when non-nil, is a pre-rendered sampler-rate envelope window
	// beginning at the detected preamble start of one frame in a continuous
	// capture. The worker decodes it directly via
	// core.Demodulator.DecodeStreamWindow — thresholds bootstrapped from
	// the window's own preamble — instead of rendering Frame. Stream jobs
	// are not recordable by the trace tee (there is no transmitted frame to
	// rebuild on replay); the tee skips them.
	Env []float64
	// EnvC is the matching correlator-rate window (ModeFull pipelines).
	EnvC []float64
	// Release, when non-nil, is called with Env and EnvC once the worker
	// has decoded them, and neither is read after: a stream segmenter
	// lends its window buffers and takes them back here.
	Release func(env, envC []float64)
	// NSymbols is the expected payload length of the Env window.
	NSymbols int
	// Want optionally carries the transmitted payload symbols; when set,
	// the pipeline scores symbol errors and packet correctness into Stats
	// and the Result.
	Want []int
	// NoiseSeeded overrides the per-frame RNG shard key with NoiseSeed
	// instead of the submission sequence number. Replay sources set it to
	// the recorded shard so a trace reproduces its noise realization
	// exactly, even when replaying a subset of the original run.
	NoiseSeeded bool
	NoiseSeed   uint64
	// Trace is the frame's flight trace ID (flight.TraceID), stamped by
	// the submitting layer; 0 means untraced. With Config.Flight set,
	// the decoding worker appends a decode-stage span under this ID and
	// feeds it to the histogram exemplars.
	Trace uint64
}

// Result is the demodulation outcome of one Job.
type Result struct {
	Tag      int
	Seq      uint64 // global submission sequence number
	Symbols  []int  // decoded payload symbols (nil if the preamble was missed)
	Detected bool   // whether the preamble was found
	// SymbolErrs counts decoded symbols differing from Job.Want; -1 when
	// the job carried no ground truth.
	SymbolErrs int
	Err        error
}

// job is a Job stamped with its submission sequence number, which shards
// the per-frame RNG.
type job struct {
	Job
	seq uint64
}

// ErrDrained is returned by Submit after Drain has begun.
var ErrDrained = errors.New("pipeline: submit after Drain")

// Pipeline is a running worker pool. Construct with New, then run it once
// with Collect (per-frame Results) or Run (a Source, Stats only): both
// submit from one goroutine and drain the pool for the final Stats.
type Pipeline struct {
	cfg     Config
	jobs    chan []job
	results chan Result
	wg      sync.WaitGroup
	scratch sync.Pool // *core.FrameScratch

	// Shared per-distance calibration table: quantized RSS -> calibrated
	// master demodulator that workers clone on first use.
	calMu    sync.Mutex
	calCache map[float64]*core.Demodulator

	// Record tee (attached with Record before traffic starts): workers
	// push every processed frame onto recCh and a single recorder
	// goroutine writes them to recW in sequence order.
	recW       *trace.Writer
	recSamples bool
	recCh      chan recItem
	recWG      sync.WaitGroup
	recErr     error // recorder's first write error; read after recWG.Wait

	seq     atomic.Uint64
	drained atomic.Bool
	once    sync.Once
	// submitMu serializes Submit's send with Drain's close of the jobs
	// channel, so a Submit racing Drain reliably returns ErrDrained
	// instead of panicking on a closed channel.
	submitMu sync.Mutex

	// The throughput clock starts at the first Submit (not construction),
	// so optional Precalibrate warm-up is excluded from frames/sec.
	startNano atomic.Int64 // UnixNano of the first Submit; 0 = none yet
	elapsed   atomic.Int64 // nanoseconds, frozen by Drain

	framesIn       atomic.Uint64
	framesOut      atomic.Uint64
	framesDetected atomic.Uint64
	framesChecked  atomic.Uint64
	framesCorrect  atomic.Uint64
	symbols        atomic.Uint64
	symbolErrs     atomic.Uint64
	simSamples     atomic.Uint64
	fxpCycles      atomic.Uint64

	met pmetrics
}

// pmetrics holds the pipeline's registered observability series. The zero
// value (all handles nil) no-ops on every write, so call sites instrument
// unconditionally; only the time.Now() reads feeding the latency
// histograms are gated on the `on` flag, keeping a metrics-off pipeline
// free of clock syscalls on the hot path.
type pmetrics struct {
	on            bool
	queueDepth    *obs.Gauge
	batches       *obs.Counter
	frames        *obs.Counter
	scratchGets   *obs.Counter
	scratchMisses *obs.Counter
	batchSec      *obs.Histogram
	decodeSec     *obs.Histogram
	fxpCycles     *obs.Histogram
}

// newPipelineMetrics registers the pipeline family. Registration is
// idempotent (obs.Registry is get-or-create), so the gateway's
// pipeline-per-rate-group-per-epoch rebuilds accumulate into one series
// set; histogram shards are sized by the first registrant's worker count.
func newPipelineMetrics(r *obs.Registry, workers int) pmetrics {
	if r == nil {
		return pmetrics{}
	}
	lat := obs.HistogramOpts{Shards: workers}
	return pmetrics{
		on:            true,
		queueDepth:    r.Gauge("saiyan_pipeline_queue_depth", "submitted batches waiting in the bounded job queue"),
		batches:       r.Counter("saiyan_pipeline_batches_total", "batches pulled off the queue by workers"),
		frames:        r.Counter("saiyan_pipeline_frames_total", "frames fully demodulated"),
		scratchGets:   r.Counter("saiyan_pipeline_scratch_gets_total", "scratch buffers checked out of the pool"),
		scratchMisses: r.Counter("saiyan_pipeline_scratch_misses_total", "scratch checkouts the pool could not serve (allocated fresh)"),
		batchSec:      r.Histogram("saiyan_pipeline_batch_seconds", "wall time to demodulate one submitted batch", lat),
		decodeSec:     r.Histogram("saiyan_pipeline_decode_seconds", "per-frame decode latency", lat),
		fxpCycles: r.Histogram("saiyan_pipeline_fxp_cycles", "fixed-point datapath MCU cycles per frame",
			obs.HistogramOpts{Min: 1024, Growth: 2, Buckets: 20, Shards: workers}),
	}
}

// New validates cfg and starts the worker pool.
func New(cfg Config) (*Pipeline, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// Validate the demodulator configuration once, up front, so workers
	// never have to surface construction errors asynchronously.
	probe, err := core.New(cfg.Demod)
	if err != nil {
		return nil, err
	}
	cfg.Demod = probe.Config()

	p := &Pipeline{
		cfg:      cfg,
		jobs:     make(chan []job, queuePerWorker*cfg.Workers),
		results:  make(chan Result, resultsPerWorker*cfg.Workers),
		calCache: make(map[float64]*core.Demodulator),
	}
	p.met = newPipelineMetrics(cfg.Metrics, cfg.Workers)
	p.scratch.New = func() any {
		p.met.scratchMisses.Inc()
		return &core.FrameScratch{}
	}
	p.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go p.worker(w)
	}
	return p, nil
}

// Submit enqueues a batch of frames. Call it from Collect's feed, or with
// Config.DiscardResults set: otherwise nothing reads the results and the
// workers stall. The queue holds 2*Workers batches; once it is full
// Submit blocks until a worker takes one (backpressure). Jobs are stamped
// with a global sequence number in submission order; calling Submit from
// a single goroutine therefore yields a deterministic symbol stream for a
// fixed seed, independent of worker count. Submit returns ErrDrained once
// Drain has been called.
func (p *Pipeline) Submit(batch ...Job) error {
	if len(batch) == 0 {
		return nil
	}
	p.submitMu.Lock()
	defer p.submitMu.Unlock()
	if p.drained.Load() {
		return ErrDrained
	}
	p.startNano.CompareAndSwap(0, time.Now().UnixNano()) //lint:allow determinism Stats.Elapsed is documented wall-clock, not snapshot state
	jobs := make([]job, len(batch))
	for i, j := range batch {
		jobs[i] = job{Job: j, seq: p.seq.Add(1) - 1}
	}
	p.framesIn.Add(uint64(len(batch)))
	p.jobs <- jobs
	p.met.queueDepth.Set(float64(len(p.jobs)))
	return nil
}

// Precalibrate builds the shared per-distance threshold table for the
// given received signal strengths before traffic arrives, the way the
// prototype loads its table offline. It is optional — masters are
// otherwise calibrated lazily on first use — and runs outside the
// throughput clock, which starts at the first Submit.
//
//lint:allow unused benchmarks and allocation pins warm the table with it so calibration stays outside what they measure
func (p *Pipeline) Precalibrate(rssDBm ...float64) {
	for _, rss := range rssDBm {
		p.master(quantize(rss))
	}
}

// Collect runs the pool once: feed submits with p.Submit on the calling
// goroutine while a second one hands every Result to each (nil drops
// them) in completion order, so workers never stall on unread results.
// Then Collect drains the pool and returns the final Stats with feed's
// error, or else the record tee's first error. With Config.DiscardResults
// set no result is ever sent and no reader goroutine starts.
func (p *Pipeline) Collect(feed func() error, each func(Result)) (Stats, error) {
	var read sync.WaitGroup
	if !p.cfg.DiscardResults {
		if each == nil {
			each = func(Result) {}
		}
		read.Add(1)
		go func() {
			defer read.Done()
			for r := range p.results {
				each(r)
			}
		}()
	}
	err := feed()
	st := p.Drain()
	read.Wait()
	if err == nil {
		err = p.recErr
	}
	return st, err
}

// Drain closes the submission side, waits for every in-flight batch to
// finish, flushes the record tee (if attached), closes the results
// channel, freezes the throughput clock, and returns the final Stats.
// Drain is idempotent. Drain does not Close an attached trace.Writer — the
// caller that attached it finalizes the file.
func (p *Pipeline) Drain() Stats {
	p.once.Do(func() {
		p.submitMu.Lock()
		p.drained.Store(true)
		close(p.jobs)
		p.submitMu.Unlock()
		p.wg.Wait()
		if p.recCh != nil {
			close(p.recCh)
			p.recWG.Wait()
		}
		if start := p.startNano.Load(); start != 0 {
			//lint:allow determinism Stats.Elapsed is documented wall-clock, not snapshot state
			p.elapsed.Store(time.Now().UnixNano() - start)
		}
		close(p.results)
	})
	return p.Stats()
}

// TraceHeader builds the trace metadata describing this pipeline: the
// normalized demodulator configuration, the seed, and the calibration
// quantum — everything a replay needs to reproduce the run bit-exactly.
// Callers may add link metadata and a description before passing it to a
// trace writer.
func (p *Pipeline) TraceHeader() trace.Header {
	return trace.Header{
		Demod:                p.cfg.Demod,
		Seed:                 p.cfg.Seed,
		CalibrationQuantumDB: calibrationQuantumDB,
	}
}

// recItem carries one processed frame from a worker to the recorder; rec
// is nil for frames that cannot be recorded (no frame payload), which
// still advance the sequence cursor. err marks a frame the tee must
// refuse (e.g. mismatched LoRa parameters).
type recItem struct {
	seq uint64
	rec *trace.Record
	err error
}

// Record attaches a trace tee: every frame subsequently processed is
// written to w in submission-sequence order, together with the decoded
// decisions (and, when samples is set, the rendered frequency trajectory
// and envelope). Record must be called after New and before the first
// Submit; the pipeline flushes the tee during Drain but does not Close w.
func (p *Pipeline) Record(w *trace.Writer, samples bool) error {
	if w == nil {
		return errors.New("pipeline: Record with nil writer")
	}
	if p.drained.Load() || p.startNano.Load() != 0 {
		return errors.New("pipeline: Record after traffic started")
	}
	if p.recCh != nil {
		return errors.New("pipeline: Record already attached")
	}
	p.recW = w
	p.recSamples = samples
	p.recCh = make(chan recItem, 4*p.cfg.Workers)
	p.recWG.Add(1)
	go p.recorder()
	return nil
}

// record captures one processed frame for the tee. Frames whose LoRa
// parameters differ from the pipeline's configured Params are refused:
// replay rebuilds every frame from the header's parameters, so recording
// a foreign-parameter frame would produce a trace that silently cannot
// replay bit-exactly.
func (p *Pipeline) record(j job, res Result, sc *core.FrameScratch, nseed uint64) (*trace.Record, error) {
	if j.Frame == nil {
		return nil, nil
	}
	if j.Frame.Params != p.cfg.Demod.Params {
		return nil, fmt.Errorf("pipeline: recording frame %d with params %v, pipeline configured for %v",
			j.seq, j.Frame.Params, p.cfg.Demod.Params)
	}
	rec := &trace.Record{
		Seq:       j.seq,
		Tag:       j.Tag,
		RSSDBm:    j.RSSDBm,
		NoiseSeed: nseed,
		Payload:   trace.SymbolsToU16(j.Frame.Payload),
		Want:      trace.SymbolsToU16(j.Want),
		Detected:  res.Detected,
	}
	if res.Err == nil {
		rec.HasDecoded = true
		rec.Decoded = trace.SymbolsToU16(res.Symbols)
		if rec.Decoded == nil {
			rec.Decoded = []uint16{}
		}
	}
	if p.recSamples {
		// The scratch buffers are recycled across frames; snapshot them.
		rec.Traj = append([]float64(nil), sc.Traj...)
		rec.Env = append([]float64(nil), sc.Env...)
	}
	return rec, nil
}

// recorder is the tee's single writer: it reorders items back into
// submission-sequence order (workers finish out of order) and streams them
// to the trace writer, so a recorded file is deterministic for a fixed
// seed regardless of worker count.
func (p *Pipeline) recorder() {
	defer p.recWG.Done()
	pending := make(map[uint64]recItem)
	var next uint64
	for it := range p.recCh {
		pending[it.seq] = it
		for {
			it, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if it.err != nil && p.recErr == nil {
				p.recErr = it.err
			}
			if it.rec == nil || p.recErr != nil {
				continue
			}
			if err := p.recW.WriteRecord(it.rec); err != nil {
				p.recErr = err
			}
		}
	}
}

// Stats returns a snapshot of the aggregate counters.
//
// The elapsed clock starts at the first Submit and is intentionally LIVE
// until Drain: a pre-Drain snapshot recomputes time.Now() on every call,
// so two successive snapshots of a still-open pipeline report different
// Elapsed values — that is the point of a progress snapshot, and
// throughput derived from it stays honest even when submission has
// paused. Drain freezes the clock at the moment the last in-flight frame
// completed; every post-Drain snapshot is then stable and identical.
// Callers wanting a final, reproducible Elapsed must read Stats after
// Drain (or use Drain's return value).
func (p *Pipeline) Stats() Stats {
	elapsed := time.Duration(p.elapsed.Load())
	if elapsed == 0 {
		if start := p.startNano.Load(); start != 0 {
			//lint:allow determinism live Elapsed read mid-run is documented wall-clock
			elapsed = time.Duration(time.Now().UnixNano() - start)
		}
	}
	return Stats{
		Workers:        p.cfg.Workers,
		FramesIn:       p.framesIn.Load(),
		FramesOut:      p.framesOut.Load(),
		FramesDetected: p.framesDetected.Load(),
		FramesChecked:  p.framesChecked.Load(),
		FramesCorrect:  p.framesCorrect.Load(),
		Symbols:        p.symbols.Load(),
		SymbolErrs:     p.symbolErrs.Load(),
		SimSamples:     p.simSamples.Load(),
		FxpCycles:      p.fxpCycles.Load(),
		Elapsed:        elapsed,
	}
}

// workerState is one worker's private demodulator pool: a clone per
// calibration quantum for frame jobs, plus a single AGC-driven clone for
// stream-window jobs.
type workerState struct {
	demods  map[float64]*core.Demodulator
	streamD *core.Demodulator
}

// worker owns a private clone of each calibrated master it encounters and
// processes batches until the queue closes. The worker index doubles as
// the histogram write shard, so concurrent observations never contend.
//
//saiyan:hotpath
func (p *Pipeline) worker(w int) {
	defer p.wg.Done()
	ws := &workerState{demods: make(map[float64]*core.Demodulator)} //lint:allow hotalloc one-time per-worker state, not per frame
	for batch := range p.jobs {
		p.met.queueDepth.Set(float64(len(p.jobs)))
		var start time.Time
		if p.met.on {
			start = time.Now()
		}
		sc := p.scratch.Get().(*core.FrameScratch)
		p.met.scratchGets.Inc()
		for _, j := range batch {
			p.process(ws, sc, j, w)
		}
		p.scratch.Put(sc)
		if p.met.on {
			p.met.batchSec.ObserveSince(w, start)
		}
		p.met.batches.Inc()
		p.met.frames.Add(uint64(len(batch)))
	}
}

// errEmptyJob is the sentinel for a job carrying neither a frame nor an
// envelope window; hoisted so process stays allocation-free per frame.
var errEmptyJob = errors.New("pipeline: job with neither frame nor envelope window")

// process demodulates one frame and publishes its result and counters.
// The worker index w selects the histogram write shard.
//
//saiyan:hotpath
func (p *Pipeline) process(ws *workerState, sc *core.FrameScratch, j job, w int) {
	res := Result{Tag: j.Tag, Seq: j.seq, SymbolErrs: -1}
	var t0 time.Time
	if p.met.on {
		t0 = time.Now()
	}
	// The noise shard is keyed by the frame's global sequence number (or
	// the job's explicit override during replay), never by worker
	// identity, so reassigning frames across a different worker count
	// cannot perturb the stream.
	nseed := j.seq
	if j.NoiseSeeded {
		nseed = j.NoiseSeed
	}
	var cycles uint64
	switch {
	case j.Frame != nil:
		q := quantize(j.RSSDBm)
		d := ws.demods[q]
		if d == nil {
			d = p.master(q).Clone()
			ws.demods[q] = d
		}
		rng := dsp.NewRand(p.cfg.Seed, nseed)
		res.Symbols, res.Detected, res.Err = d.ProcessFrameScratch(j.Frame, j.RSSDBm, rng, sc)
		p.simSamples.Add(uint64(sc.Rendered))
		cycles = d.TakeFxpCycles()
	case j.Env != nil:
		// Stream decode: the envelope already exists; nothing is rendered
		// and no noise shard is drawn — the capture carries its own noise
		// realization, so the decode is a pure function of the window and
		// worker count cannot perturb it.
		if ws.streamD == nil {
			// A clone of the config's prewarmed master from core's memo,
			// shared by every pipeline; it AutoCalibrates per window.
			m, _, err := core.Prewarmed(p.cfg.Demod)
			if err != nil {
				panic(err) // cfg.Demod was validated by New; this cannot happen
			}
			ws.streamD = m.Clone()
		}
		res.Symbols, res.Detected, res.Err = ws.streamD.DecodeStreamWindow(j.Env, j.EnvC, j.NSymbols, p.cfg.AGC)
		cycles = ws.streamD.TakeFxpCycles()
		if j.Release != nil {
			j.Release(j.Env, j.EnvC)
		}
	default:
		res.Err = errEmptyJob
	}
	if cycles != 0 {
		p.fxpCycles.Add(cycles)
		p.met.fxpCycles.ObserveShardTrace(w, float64(cycles), j.Trace)
	}
	if p.met.on {
		p.met.decodeSec.ObserveSinceTrace(w, t0, j.Trace)
	}
	if p.recCh != nil {
		rec, recErr := p.record(j, res, sc, nseed)
		p.recCh <- recItem{seq: j.seq, rec: rec, err: recErr}
	}

	p.framesOut.Add(1)
	if res.Detected {
		p.framesDetected.Add(1)
	}
	if res.Err == nil && j.Want != nil {
		errs := len(j.Want)
		if res.Detected {
			errs = countSymbolErrs(j.Want, res.Symbols)
		}
		res.SymbolErrs = errs
		p.framesChecked.Add(1)
		p.symbols.Add(uint64(len(j.Want)))
		p.symbolErrs.Add(uint64(errs))
		if errs == 0 {
			p.framesCorrect.Add(1)
		}
	}
	if j.Trace != 0 {
		dec := flight.DecodeOK
		if res.Err != nil || !res.Detected {
			dec = flight.DecodeErr
		}
		p.cfg.Flight.Append(1+w, flight.Span{
			Trace:    j.Trace,
			Tag:      uint16(j.Tag),
			Stage:    flight.StageDecode,
			Decision: dec,
			A:        float64(res.SymbolErrs),
			B:        float64(cycles),
		})
	}
	if !p.cfg.DiscardResults {
		p.results <- res
	}
}

// quantize snaps an RSS onto the per-distance calibration grid.
func quantize(rssDBm float64) float64 {
	return math.Round(rssDBm/calibrationQuantumDB) * calibrationQuantumDB
}

// master returns the shared calibrated demodulator for one RSS quantum,
// calibrating it on first use. Calibration noise is seeded from the seed
// and the quantum alone, so every worker — and every run — sees an
// identical threshold table.
func (p *Pipeline) master(q float64) *core.Demodulator {
	p.calMu.Lock()
	defer p.calMu.Unlock()
	if d, ok := p.calCache[q]; ok {
		return d
	}
	d, err := core.New(p.cfg.Demod)
	if err != nil {
		// cfg.Demod was validated by New; this cannot happen.
		panic("pipeline: demodulator config invalidated after New: " + err.Error())
	}
	rng := dsp.NewRand(p.cfg.Seed^0x9e3779b97f4a7c15, math.Float64bits(q))
	d.Calibrate(q, rng)
	p.calCache[q] = d
	return d
}

// countSymbolErrs counts positions where got differs from want; symbols
// missing from a short decode count as errors.
func countSymbolErrs(want, got []int) int {
	errs := 0
	for i, w := range want {
		if i >= len(got) || got[i] != w {
			errs++
		}
	}
	return errs
}

// Stats is an aggregate snapshot of a pipeline's work. JSON field names
// are part of the wire protocol's stable metrics schema (internal/server):
// stream.Stats embeds this struct in its payloads.
type Stats struct {
	Workers        int    `json:"workers"`
	FramesIn       uint64 `json:"frames_in"`       // frames accepted by Submit
	FramesOut      uint64 `json:"frames_out"`      // frames fully processed
	FramesDetected uint64 `json:"frames_detected"` // frames whose preamble was found
	FramesChecked  uint64 `json:"frames_checked"`  // frames submitted with ground truth
	FramesCorrect  uint64 `json:"frames_correct"`  // checked frames decoded without symbol error
	Symbols        uint64 `json:"symbols"`         // ground-truth symbols compared
	SymbolErrs     uint64 `json:"symbol_errs"`     // ground-truth symbols decoded wrongly
	SimSamples     uint64 `json:"sim_samples"`     // simulation-rate samples rendered
	// FxpCycles is the MCU cycle count accumulated by the fixed-point
	// datapath (core.DatapathFixed) across every decode; 0 under the
	// float datapath. Deterministic for a fixed seed at any worker count;
	// convert to microwatts with energy.MCUBudget.
	FxpCycles uint64 `json:"fxp_cycles,omitempty"`
	// Elapsed is wall-clock processing time in nanoseconds (the one
	// non-deterministic field).
	Elapsed time.Duration `json:"elapsed_ns"`
}

// SER is the aggregate symbol error rate over checked frames.
func (s Stats) SER() float64 {
	if s.Symbols == 0 {
		return 0
	}
	return float64(s.SymbolErrs) / float64(s.Symbols)
}

// PRR is the packet reception ratio over checked frames: detected and
// decoded with zero symbol errors.
func (s Stats) PRR() float64 {
	if s.FramesChecked == 0 {
		return 0
	}
	return float64(s.FramesCorrect) / float64(s.FramesChecked)
}

// DetectRate is the fraction of processed frames whose preamble was found.
func (s Stats) DetectRate() float64 {
	if s.FramesOut == 0 {
		return 0
	}
	return float64(s.FramesDetected) / float64(s.FramesOut)
}

// FramesPerSec is the processed-frame throughput.
func (s Stats) FramesPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.FramesOut) / s.Elapsed.Seconds()
}

// MSamplesPerSec is the analog-simulation throughput in millions of
// simulation-rate samples per second.
func (s Stats) MSamplesPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.SimSamples) / s.Elapsed.Seconds() / 1e6
}

// String renders the snapshot as a one-line gateway report.
func (s Stats) String() string {
	return fmt.Sprintf(
		"workers=%d frames=%d/%d detect=%.1f%% SER=%.4f PRR=%.1f%% %.1f frames/s %.1f Msamples/s in %v",
		s.Workers, s.FramesOut, s.FramesIn, 100*s.DetectRate(), s.SER(), 100*s.PRR(),
		s.FramesPerSec(), s.MSamplesPerSec(), s.Elapsed.Round(time.Millisecond))
}
