package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"saiyan"
)

// captureSpec is a capture-replay workload: a multi-tag timeline is
// rendered once during set-up, then demodulated back to back, each pass a
// fresh segmenter and worker pool over the same capture bytes.
type captureSpec struct {
	Tags, FramesPerTag int
	// MinGapSymbols and MaxGapSymbols bound the idle gap before each frame;
	// 0 keeps the timeline defaults of 2 and 12 symbols.
	MinGapSymbols, MaxGapSymbols float64
	// OverlapEvery makes every n-th frame collide with the one before it.
	OverlapEvery int
	// Datapath is the decode datapath; the capture is always rendered by
	// the float chain, so both datapaths see the same bytes.
	Datapath saiyan.Datapath
}

const (
	tracedPasses = 20 // passes in each traced phase
	receiverSeed = 1  // calibration seed of the receiver
)

func (c captureSpec) render(seed uint64) (*saiyan.TagStream, error) {
	ts, err := saiyan.NewTagSet(saiyan.DefaultParams(), saiyan.DefaultLinkBudget(), c.Tags, 20, 100, seed)
	if err != nil {
		return nil, err
	}
	return ts.RenderTimeline(saiyan.DefaultConfig(), saiyan.TimelineConfig{
		FramesPerTag:  c.FramesPerTag,
		MinGapSymbols: c.MinGapSymbols,
		MaxGapSymbols: c.MaxGapSymbols,
		OverlapEvery:  c.OverlapEvery,
	})
}

// configs returns the pipeline and segmenter configuration of one pass.
// The receiver's own calibration seed is fixed: -seed varies the capture,
// not the receiver, so the hunt thresholds (and with them the idle-air
// false-alarm rate) do not change from seed to seed.
func (c captureSpec) configs(nworkers int) (saiyan.PipelineConfig, saiyan.StreamConfig) {
	demod := saiyan.DefaultConfig()
	demod.Datapath = c.Datapath
	pcfg := saiyan.DefaultPipelineConfig()
	pcfg.Demod = demod
	pcfg.Workers = nworkers
	pcfg.Seed = receiverSeed
	pcfg.DiscardResults = true
	return pcfg, saiyan.StreamConfig{Demod: demod, Seed: receiverSeed}
}

func (c captureSpec) run(o runOpts) (*report, error) {
	ctx := context.Background()
	rep := &report{ops: "passes", e2e: map[string]float64{}}

	// Set-up: render the capture setupReps times. The renders must agree
	// byte for byte; setup_s is the median render time.
	var capture *saiyan.TagStream
	var setup []float64
	var renderMallocs uint64
	for range setupReps {
		m0 := mallocs()
		t0 := time.Now()
		s, err := c.render(o.seed)
		setup = append(setup, time.Since(t0).Seconds())
		renderMallocs = mallocs() - m0
		if err != nil {
			return nil, fmt.Errorf("rendering the capture: %w", err)
		}
		if capture != nil && !sameCapture(capture, s) {
			rep.problem("two renders of seed %d differ", o.seed)
		}
		capture = s
	}
	frames := len(capture.Events)

	// The reference is a 1-worker pass; every timed pass must reproduce
	// its counters exactly.
	refCfg, scfg := c.configs(1)
	ref, err := saiyan.DemodulateStream(ctx, refCfg, scfg, capture, chunkSamples)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	if c.Datapath == saiyan.DatapathFixed {
		floatCfg, floatScfg := captureSpec{}.configs(1)
		fl, err := saiyan.DemodulateStream(ctx, floatCfg, floatScfg, capture, chunkSamples)
		if err != nil {
			return nil, fmt.Errorf("float reference pass: %w", err)
		}
		if math.Abs(ref.Recovery()-fl.Recovery()) > 0.01*fl.Recovery() {
			rep.problem("fixed-point recovery %.4f is not within 1%% of float recovery %.4f", ref.Recovery(), fl.Recovery())
		}
	}

	// Timed phase: closed-loop passes on the 2-worker pool, after an
	// untimed warm-up that lets the heap and the host settle.
	pcfg, _ := c.configs(workers)
	for t0 := time.Now(); time.Since(t0) < o.warmup; {
		if _, err := saiyan.DemodulateStream(ctx, pcfg, scfg, capture, chunkSamples); err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
	}
	var lat []float64
	m0 := mallocs()
	start := time.Now()
	for len(lat) < o.minOps || time.Since(start) < o.seconds {
		t0 := time.Now()
		st, err := saiyan.DemodulateStream(ctx, pcfg, scfg, capture, chunkSamples)
		lat = append(lat, ms(time.Since(t0)))
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(lat), err)
		}
		if err := sameCounters(ref, st); err != nil {
			rep.problem("pass %d: %v", len(lat), err)
			rep.failed += frames
		}
	}
	wall := time.Since(start)
	allocs := mallocs() - m0
	passes := len(lat)

	rep.opsTimed = passes
	rep.attempted = frames * passes
	fps := float64(rep.attempted) / wall.Seconds()
	rep.e2e["setup_s"] = median(setup)
	rep.e2e["frames_per_s"] = fps
	rep.e2e["latency_p50_ms"] = percentile(lat, 50)
	rep.e2e["latency_p95_ms"] = percentile(lat, 95)
	rep.e2e["recovery"] = ref.Recovery()
	rep.e2e["allocs_per_frame"] = float64(allocs) / float64(rep.attempted)
	if o.traced {
		rep.layer = layerValues()
		rep.layer["sim.render_ms_per_frame"] = 1e3 * median(setup) / float64(frames)
		rep.layer["sim.render_allocs_per_frame"] = float64(renderMallocs) / float64(frames)
		if err := c.trace(ctx, rep, capture, ref, fps); err != nil {
			return nil, err
		}
	}
	rep.e2e["heap_mb"] = heapMB()
	runtime.KeepAlive(capture)
	return rep, nil
}

// trace runs the traced phases after the timed one and fills rep.layer:
// passes with an obs registry attached (for the worker pool's busy time),
// then single-goroutine replays with spans around every layer call,
// alternated with untraced replays to price the spans themselves.
func (c captureSpec) trace(ctx context.Context, rep *report, capture *saiyan.TagStream, ref saiyan.StreamStats, fps float64) error {
	reg := saiyan.NewObsRegistry()
	pcfg, scfg := c.configs(workers)
	pcfg.Metrics, scfg.Metrics = reg, reg
	start := time.Now()
	for i := range tracedPasses {
		st, err := saiyan.DemodulateStream(ctx, pcfg, scfg, capture, chunkSamples)
		if err != nil {
			return fmt.Errorf("metrics pass %d: %w", i, err)
		}
		if err := sameCounters(ref, st); err != nil {
			rep.problem("metrics pass %d: %v", i, err)
		}
	}
	wall := time.Since(start)
	decodeSec := findMetric(reg.Snapshot(), "saiyan_pipeline_decode_seconds").Sum
	rep.layer["pipeline.worker_busy_share"] = decodeSec / (workers * wall.Seconds())

	pcfg, scfg = c.configs(1)
	tr := newTracer(tracedPasses * (4 + ref.WindowsEmitted))
	var plain, traced time.Duration
	for i := range 2 * tracedPasses {
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		t0 := time.Now()
		st, err := replay(t, pcfg, scfg, capture)
		if i%2 == 1 {
			traced += time.Since(t0)
		} else {
			plain += time.Since(t0)
		}
		if err != nil {
			return fmt.Errorf("replay %d: %w", i, err)
		}
		if err := sameCounters(ref, st); err != nil {
			rep.problem("replay %d: %v", i, err)
		}
	}
	if err := checkNesting(tr.spans); err != nil {
		rep.problem("trace: %v", err)
	}
	rep.spans = tr.spans

	agg := selfTimes(tr.spans)
	windows := float64(tracedPasses * ref.WindowsEmitted)
	airS := float64(len(capture.Env)) / capture.SampleRateHz
	perPassMs := func(name string) float64 { return float64(agg[name].totalNs) / 1e6 / tracedPasses }
	layer := "core"
	if c.Datapath == saiyan.DatapathFixed {
		layer = "fxp"
		rep.layer["fxp.mcu_cycles_per_frame"] = float64(ref.FxpCycles) / float64(len(capture.Events))
	}
	decode := agg[layer+".decode"]
	rep.layer["stream.setup_ms"] = perPassMs("stream.setup")
	rep.layer["stream.segment_us_per_window"] = float64(agg["stream.segment"].totalNs) / 1e3 / windows
	rep.layer["stream.segment_ms_per_air_s"] = perPassMs("stream.segment") / airS
	rep.layer["stream.segment_allocs_per_window"] = float64(agg["stream.segment"].mallocs) / windows
	rep.layer["stream.window_match_ratio"] = float64(ref.WindowsMatched) / float64(ref.WindowsEmitted)
	rep.layer["core.prewarm_ms"] = perPassMs("core.prewarm")
	rep.layer[layer+".decode_us_per_window"] = float64(decode.totalNs) / 1e3 / windows
	rep.layer[layer+".decode_allocs_per_window"] = float64(decode.mallocs) / windows
	rep.layer["trace.overhead_ratio"] = traced.Seconds() / plain.Seconds()
	rep.notes = append(rep.notes, fmt.Sprintf("untraced %.0f frames/s; metrics-on %.0f frames/s; span-traced replay takes %.3fx the untraced replay",
		fps, float64(tracedPasses*len(capture.Events))/wall.Seconds(), traced.Seconds()/plain.Seconds()))
	return nil
}

// replay demodulates the capture once on the calling goroutine, making
// the calls a pipeline worker makes, with a span around each layer call
// when tr is non-nil. Its counters must equal the pipeline's.
func replay(tr *tracer, pcfg saiyan.PipelineConfig, scfg saiyan.StreamConfig, capture *saiyan.TagStream) (saiyan.StreamStats, error) {
	pass := tr.begin("pass", 0)
	defer tr.end(pass)

	sp := tr.begin("stream.setup", pass)
	src, err := saiyan.NewStreamSource(scfg, capture, chunkSamples)
	tr.end(sp)
	if err != nil {
		return saiyan.StreamStats{}, err
	}

	sp = tr.begin("stream.segment", pass)
	var jobs []saiyan.PipelineJob
	for {
		j, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			tr.end(sp)
			return saiyan.StreamStats{}, err
		}
		jobs = append(jobs, j)
	}
	tr.end(sp)

	sp = tr.begin("core.prewarm", pass)
	master, err := saiyan.NewDemodulator(pcfg.Demod)
	if err == nil {
		master.PrewarmAuto()
	}
	tr.end(sp)
	if err != nil {
		return saiyan.StreamStats{}, err
	}
	d := master.Clone()

	decode := "core.decode"
	if pcfg.Demod.Datapath == saiyan.DatapathFixed {
		decode = "fxp.decode"
	}
	st := saiyan.StreamStats{
		FramesScheduled: len(capture.Events),
		WindowsEmitted:  src.Windows(),
		WindowsMatched:  src.Matched(),
		SamplesIn:       src.SamplesIn(),
	}
	for _, j := range jobs {
		sp := tr.begin(decode, pass)
		syms, detected, err := d.DecodeStreamWindow(j.Env, j.EnvC, j.NSymbols, pcfg.AGC)
		cycles := d.TakeFxpCycles()
		tr.end(sp)
		score(&st.Stats, j, syms, detected, err, cycles)
	}
	return st, nil
}

// score folds one decoded window into st the way the pipeline scores a
// stream job.
func score(st *saiyan.PipelineStats, j saiyan.PipelineJob, syms []int, detected bool, err error, cycles uint64) {
	st.FramesIn++
	st.FramesOut++
	st.FxpCycles += cycles
	if detected {
		st.FramesDetected++
	}
	if err != nil || j.Want == nil {
		return
	}
	errs := len(j.Want)
	if detected {
		errs = 0
		for i, w := range j.Want {
			if i >= len(syms) || syms[i] != w {
				errs++
			}
		}
	}
	st.FramesChecked++
	st.Symbols += uint64(len(j.Want))
	st.SymbolErrs += uint64(errs)
	if errs == 0 {
		st.FramesCorrect++
	}
}

// sameCounters reports whether a pass reproduced the reference pass:
// every counter equal, ignoring the worker count and the wall clock.
func sameCounters(ref, got saiyan.StreamStats) error {
	norm := func(s saiyan.StreamStats) saiyan.StreamStats {
		s.Workers, s.Elapsed = 0, 0
		return s
	}
	if norm(ref) != norm(got) {
		// Marshal cannot fail on a struct of integers.
		g, _ := json.Marshal(norm(got))
		r, _ := json.Marshal(norm(ref))
		return fmt.Errorf("counters %s differ from the reference %s", g, r)
	}
	return nil
}

// sameCapture reports whether two renders are identical.
func sameCapture(a, b *saiyan.TagStream) bool {
	if len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if a.Events[i].StartSamp != b.Events[i].StartSamp || !slices.Equal(a.Events[i].Want, b.Events[i].Want) {
			return false
		}
	}
	return slices.Equal(a.Env, b.Env) && slices.Equal(a.EnvC, b.EnvC)
}
