package saiyan_test

// One benchmark per table/figure of the paper's evaluation. Each bench
// regenerates the corresponding experiment (quick fidelity, fixed seed) and
// reports the wall time of a full regeneration; run with
//
//	go test -bench=. -benchmem
//
// and use `go run ./cmd/saiyan run <id>` for the full-fidelity tables that
// EXPERIMENTS.md records.

import (
	"context"
	"io"
	"math"
	"runtime"
	"testing"

	"saiyan"
	"saiyan/internal/flight"
	"saiyan/internal/health"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opts := saiyan.DefaultExperimentOptions()
	opts.Quick = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := saiyan.RunExperiment(id, opts, io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkFig02 regenerates Figure 2: uplink BER of PLoRa and Aloba vs
// tag-to-Tx distance.
func BenchmarkFig02(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig03 regenerates Figure 3: chirps before/after the
// frequency-amplitude transformation.
func BenchmarkFig03(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig05 regenerates Figure 5: the SAW filter response.
func BenchmarkFig05(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig06 regenerates Figure 6: SAW input/output per symbol.
func BenchmarkFig06(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig07 regenerates Figure 7: comparator comparison.
func BenchmarkFig07(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig08 regenerates Figure 8: the packet decoding walk-through.
func BenchmarkFig08(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkTable1 regenerates Table 1: required sampling rates for 99.9%
// accuracy.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "tab1") }

// BenchmarkFig10 regenerates Figure 10: the cyclic-frequency-shifting SNR
// gain.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig16 regenerates Figure 16: BER and throughput vs coding rate.
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkFig17 regenerates Figure 17: range and throughput vs SF.
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17") }

// BenchmarkFig18 regenerates Figure 18: range and throughput vs bandwidth.
func BenchmarkFig18(b *testing.B) { benchExperiment(b, "fig18") }

// BenchmarkFig19 regenerates Figure 19: one concrete wall.
func BenchmarkFig19(b *testing.B) { benchExperiment(b, "fig19") }

// BenchmarkFig20 regenerates Figure 20: two concrete walls.
func BenchmarkFig20(b *testing.B) { benchExperiment(b, "fig20") }

// BenchmarkFig21 regenerates Figure 21: detection range comparison.
func BenchmarkFig21(b *testing.B) { benchExperiment(b, "fig21") }

// BenchmarkFig22 regenerates Figure 22: RSS/BER vs distance and
// sensitivity.
func BenchmarkFig22(b *testing.B) { benchExperiment(b, "fig22") }

// BenchmarkFig23 regenerates Figure 23: SAW amplitude gap vs distance.
func BenchmarkFig23(b *testing.B) { benchExperiment(b, "fig23") }

// BenchmarkFig24 regenerates Figure 24: temperature drift vs range.
func BenchmarkFig24(b *testing.B) { benchExperiment(b, "fig24") }

// BenchmarkFig25 regenerates Figure 25: the ablation study.
func BenchmarkFig25(b *testing.B) { benchExperiment(b, "fig25") }

// BenchmarkTable2 regenerates Table 2: the energy/cost ledger.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "tab2") }

// BenchmarkFig26 regenerates Figure 26: PRR vs retransmissions.
func BenchmarkFig26(b *testing.B) { benchExperiment(b, "fig26") }

// BenchmarkFig27 regenerates Figure 27: channel-hopping PRR CDF.
func BenchmarkFig27(b *testing.B) { benchExperiment(b, "fig27") }

// Pipeline benchmarks: concurrent multi-tag gateway throughput. Each
// iteration streams a fixed traffic matrix (tags x frames) through a fresh
// worker pool and reports frames/sec from the pipeline's own clock; compare
// the workers=1 and workers=8 variants on a multi-core machine to see the
// pool scale.

func benchPipeline(b *testing.B, workers, tags int, withMetrics bool) {
	const framesPerTag = 4
	ts, err := saiyan.NewTagSet(saiyan.DefaultParams(), saiyan.DefaultLinkBudget(), tags, 20, 120, 7)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-build the traffic matrix outside the timer; the benchmark
	// measures demodulation, not frame synthesis.
	var jobs []saiyan.PipelineJob
	for f := 0; f < framesPerTag; f++ {
		for _, tag := range ts.Tags {
			frame, want, err := ts.Frame(tag.ID, uint64(f))
			if err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, saiyan.PipelineJob{Tag: tag.ID, Frame: frame, RSSDBm: tag.RSSDBm, Want: want})
		}
	}
	rss := make([]float64, len(ts.Tags))
	for i, tag := range ts.Tags {
		rss[i] = tag.RSSDBm
	}
	cfg := saiyan.DefaultPipelineConfig()
	cfg.Workers = workers
	cfg.Seed = 7
	cfg.DiscardResults = true
	if withMetrics {
		// One registry across every iteration: registration is
		// idempotent, and the hot path only touches atomics.
		cfg.Metrics = saiyan.NewObsRegistry()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last saiyan.PipelineStats
	for i := 0; i < b.N; i++ {
		// Pool construction and the per-distance threshold table are
		// setup, not streaming work; keep them off the timer so the
		// worker-count variants compare pure demodulation throughput.
		b.StopTimer()
		p, err := saiyan.NewPipeline(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p.Precalibrate(rss...)
		b.StartTimer()
		for at := 0; at < len(jobs); at += tags {
			if err := p.Submit(jobs[at : at+tags]...); err != nil {
				b.Fatal(err)
			}
		}
		last = p.Drain()
		if last.FramesOut != uint64(len(jobs)) {
			b.Fatalf("pipeline lost frames: %d/%d", last.FramesOut, len(jobs))
		}
	}
	b.ReportMetric(last.FramesPerSec(), "frames/s")
	b.ReportMetric(last.MSamplesPerSec(), "Msamples/s")
}

func BenchmarkPipeline1Worker4Tags(b *testing.B)   { benchPipeline(b, 1, 4, false) }
func BenchmarkPipeline4Workers4Tags(b *testing.B)  { benchPipeline(b, 4, 4, false) }
func BenchmarkPipeline8Workers4Tags(b *testing.B)  { benchPipeline(b, 8, 4, false) }
func BenchmarkPipeline1Worker32Tags(b *testing.B)  { benchPipeline(b, 1, 32, false) }
func BenchmarkPipeline4Workers32Tags(b *testing.B) { benchPipeline(b, 4, 32, false) }
func BenchmarkPipeline8Workers32Tags(b *testing.B) { benchPipeline(b, 8, 32, false) }

// The metrics-on twins run the identical workload with an obs registry
// attached, so the -benchmem columns pin the instrumentation budget:
// B/op and allocs/op must match the plain variants (the decode hot path
// records through pre-registered atomic handles only).
func BenchmarkPipeline4Workers4TagsMetrics(b *testing.B)  { benchPipeline(b, 4, 4, true) }
func BenchmarkPipeline8Workers32TagsMetrics(b *testing.B) { benchPipeline(b, 8, 32, true) }

// Stream benchmarks: the continuous-capture receive path — preamble
// hunting over raw envelope samples plus window decoding on the worker
// pool. The capture is rendered once outside the timer; each iteration
// segments and demodulates it from scratch, reporting end-to-end frame
// recovery throughput and the raw segmentation rate in capture samples.

func benchStream(b *testing.B, workers, tags int) {
	const framesPerTag = 4
	ts, err := saiyan.NewTagSet(saiyan.DefaultParams(), saiyan.DefaultLinkBudget(), tags, 20, 100, 7)
	if err != nil {
		b.Fatal(err)
	}
	capture, err := saiyan.RenderTimeline(ts, saiyan.DefaultConfig(), saiyan.TimelineConfig{FramesPerTag: framesPerTag})
	if err != nil {
		b.Fatal(err)
	}
	pcfg := saiyan.DefaultPipelineConfig()
	pcfg.Workers = workers
	pcfg.Seed = 7
	pcfg.DiscardResults = true
	scfg := saiyan.StreamConfig{Demod: saiyan.DefaultConfig(), Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	var last saiyan.StreamStats
	for i := 0; i < b.N; i++ {
		st, err := saiyan.DemodulateStream(context.Background(), pcfg, scfg, capture, 256)
		if err != nil {
			b.Fatal(err)
		}
		if st.WindowsEmitted == 0 {
			b.Fatal("segmentation emitted no windows")
		}
		last = st
	}
	b.ReportMetric(last.FramesPerSec(), "frames/s")
	b.ReportMetric(last.SamplesPerSec()/1e6, "Msamples/s")
	b.ReportMetric(100*last.Recovery(), "recovery%")
}

func BenchmarkStream1Worker4Tags(b *testing.B)   { benchStream(b, 1, 4) }
func BenchmarkStream4Workers4Tags(b *testing.B)  { benchStream(b, 4, 4) }
func BenchmarkStream1Worker16Tags(b *testing.B)  { benchStream(b, 1, 16) }
func BenchmarkStream4Workers16Tags(b *testing.B) { benchStream(b, 4, 16) }
func BenchmarkStream8Workers16Tags(b *testing.B) { benchStream(b, 8, 16) }

// Fixed-point datapath benchmarks: the same traffic matrix demodulated
// with the float64 reference and the Q1.15 integer MCU datapath. Both
// variants report ns/frame from the pipeline's own clock, so BENCH_fxp.json
// carries the float-vs-fxp comparison directly; the fxp variants also
// report the deterministic MCU cycle budget per frame.

func benchFxpPipeline(b *testing.B, workers int, dp saiyan.Datapath) {
	const tags, framesPerTag = 8, 4
	ts, err := saiyan.NewTagSet(saiyan.DefaultParams(), saiyan.DefaultLinkBudget(), tags, 20, 120, 7)
	if err != nil {
		b.Fatal(err)
	}
	var jobs []saiyan.PipelineJob
	for f := 0; f < framesPerTag; f++ {
		for _, tag := range ts.Tags {
			frame, want, err := ts.Frame(tag.ID, uint64(f))
			if err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, saiyan.PipelineJob{Tag: tag.ID, Frame: frame, RSSDBm: tag.RSSDBm, Want: want})
		}
	}
	rss := make([]float64, len(ts.Tags))
	for i, tag := range ts.Tags {
		rss[i] = tag.RSSDBm
	}
	cfg := saiyan.DefaultPipelineConfig()
	cfg.Workers = workers
	cfg.Seed = 7
	cfg.DiscardResults = true
	cfg.Demod.Datapath = dp
	b.ReportAllocs()
	b.ResetTimer()
	var last saiyan.PipelineStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := saiyan.NewPipeline(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p.Precalibrate(rss...)
		b.StartTimer()
		for at := 0; at < len(jobs); at += tags {
			if err := p.Submit(jobs[at : at+tags]...); err != nil {
				b.Fatal(err)
			}
		}
		last = p.Drain()
		if last.FramesOut != uint64(len(jobs)) {
			b.Fatalf("pipeline lost frames: %d/%d", last.FramesOut, len(jobs))
		}
	}
	b.ReportMetric(float64(last.Elapsed.Nanoseconds())/float64(last.FramesOut), "ns/frame")
	b.ReportMetric(last.FramesPerSec(), "frames/s")
	if dp == saiyan.DatapathFixed {
		b.ReportMetric(float64(last.FxpCycles)/float64(last.FramesOut), "MCUcycles/frame")
	}
}

func BenchmarkFxpPipeline1Worker(b *testing.B)  { benchFxpPipeline(b, 1, saiyan.DatapathFixed) }
func BenchmarkFxpPipeline4Workers(b *testing.B) { benchFxpPipeline(b, 4, saiyan.DatapathFixed) }
func BenchmarkFxpPipeline8Workers(b *testing.B) { benchFxpPipeline(b, 8, saiyan.DatapathFixed) }

// The float twins of the fxp benchmarks, under the BenchmarkFxp prefix so
// the BENCH_fxp.json artifact carries both sides of the comparison.
func BenchmarkFxpFloatRef1Worker(b *testing.B)  { benchFxpPipeline(b, 1, saiyan.DatapathFloat) }
func BenchmarkFxpFloatRef4Workers(b *testing.B) { benchFxpPipeline(b, 4, saiyan.DatapathFloat) }
func BenchmarkFxpFloatRef8Workers(b *testing.B) { benchFxpPipeline(b, 8, saiyan.DatapathFloat) }

// BenchmarkFxpDecodeSymbol is the integer twin of
// BenchmarkDemodulateSymbolFull: one payload symbol through the full
// render+decode path on the fixed-point datapath.
func BenchmarkFxpDecodeSymbol(b *testing.B) {
	cfg := saiyan.DefaultConfig()
	cfg.Datapath = saiyan.DatapathFixed
	d, err := saiyan.NewDemodulator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := saiyan.NewRand(1, 1)
	const rss = -70.0
	d.Calibrate(rss, rng)
	p := cfg.Params
	traj := p.FreqTrajectory(nil, p.SymbolValue(1), d.SimRateHz())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.DemodulatePayload(traj, rss, 1, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.TakeFxpCycles())/float64(b.N), "MCUcycles/op")
}

// Component-level microbenchmarks: the per-stage costs a porting effort
// would care about.

func BenchmarkDemodulateSymbolFull(b *testing.B) {
	cfg := saiyan.DefaultConfig()
	d, err := saiyan.NewDemodulator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := saiyan.NewRand(1, 1)
	const rss = -70.0
	d.Calibrate(rss, rng)
	p := cfg.Params
	traj := p.FreqTrajectory(nil, p.SymbolValue(1), d.SimRateHz())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.DemodulatePayload(traj, rss, 1, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCalibrate(b *testing.B) {
	cfg := saiyan.DefaultConfig()
	rng := saiyan.NewRand(9, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := saiyan.NewDemodulator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		d.Calibrate(-70, rng)
	}
}

// Flight-recorder benchmarks: the pipeline workload with per-frame trace
// stamping, run with and without a recorder attached. The twins pin the
// flight recorder's hot-path budget the same way the Metrics twins pin
// the obs registry's: B/op and allocs/op must be identical, because ring
// appends write into preallocated per-worker shards through atomics
// only. TestFlightRecorderAllocNeutral asserts the allocs/op side.

func benchFlightPipeline(b *testing.B, workers, tags int, withFlight bool) {
	const framesPerTag = 4
	ts, err := saiyan.NewTagSet(saiyan.DefaultParams(), saiyan.DefaultLinkBudget(), tags, 20, 120, 7)
	if err != nil {
		b.Fatal(err)
	}
	var jobs []saiyan.PipelineJob
	for f := 0; f < framesPerTag; f++ {
		for _, tag := range ts.Tags {
			frame, want, err := ts.Frame(tag.ID, uint64(f))
			if err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, saiyan.PipelineJob{
				Tag: tag.ID, Frame: frame, RSSDBm: tag.RSSDBm, Want: want,
				Trace: flight.TraceID(0, 0, tag.ID, uint64(f)),
			})
		}
	}
	rss := make([]float64, len(ts.Tags))
	for i, tag := range ts.Tags {
		rss[i] = tag.RSSDBm
	}
	cfg := saiyan.DefaultPipelineConfig()
	cfg.Workers = workers
	cfg.Seed = 7
	cfg.DiscardResults = true
	if withFlight {
		// One recorder across every iteration, like the Metrics twins:
		// the rings are preallocated once; the hot path only appends.
		cfg.Flight = saiyan.NewFlightRecorder(saiyan.FlightOptions{Shards: workers + 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last saiyan.PipelineStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := saiyan.NewPipeline(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p.Precalibrate(rss...)
		b.StartTimer()
		for at := 0; at < len(jobs); at += tags {
			if err := p.Submit(jobs[at : at+tags]...); err != nil {
				b.Fatal(err)
			}
		}
		last = p.Drain()
		if last.FramesOut != uint64(len(jobs)) {
			b.Fatalf("pipeline lost frames: %d/%d", last.FramesOut, len(jobs))
		}
	}
	b.ReportMetric(last.FramesPerSec(), "frames/s")
}

func BenchmarkFlightOff4Workers4Tags(b *testing.B)  { benchFlightPipeline(b, 4, 4, false) }
func BenchmarkFlightOn4Workers4Tags(b *testing.B)   { benchFlightPipeline(b, 4, 4, true) }
func BenchmarkFlightOff8Workers32Tags(b *testing.B) { benchFlightPipeline(b, 8, 32, false) }
func BenchmarkFlightOn8Workers32Tags(b *testing.B)  { benchFlightPipeline(b, 8, 32, true) }

// benchHealthGateway runs the closed-loop gateway epoch loop with or
// without a link-health store attached — whole-system throughput
// context for the health plane. The rule set is evaluated every epoch
// but can never fire, keeping the rare transition path (which may
// allocate) out of the measurement. The epoch loop itself carries a few
// mallocs of goroutine/GC jitter per run, so the strict alloc-identity
// bar lives where it is deterministic: the store-level
// BenchmarkHealthOn/Off twins in internal/health report identical
// 0 allocs/op, and the health package's zero-alloc tests pin the
// append and seal paths.
func benchHealthGateway(b *testing.B, workers int, withHealth bool) {
	b.Helper()
	cfg := saiyan.DefaultGatewayConfig()
	cfg.Seed = 7
	cfg.Workers = workers
	cfg.Channels = 2
	cfg.Tags = 8
	cfg.FramesPerTag = 2
	if withHealth {
		st, err := saiyan.NewHealthStore(saiyan.HealthOptions{Rules: []saiyan.HealthRule{
			{Name: "never", Series: "gateway.frames_scheduled", Kind: health.KindThreshold,
				Op: health.OpAbove, Threshold: 1e18},
		}})
		if err != nil {
			b.Fatal(err)
		}
		cfg.Health = st
	}
	g, err := saiyan.NewGateway(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for range 6 { // warm to steady state
		if _, err := g.RunEpoch(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.RunEpoch(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if snap := g.Snapshot(); snap.FramesScheduled == 0 {
		b.Fatal("benchmark scheduled no frames")
	}
}

func BenchmarkHealthOff1Worker(b *testing.B)  { benchHealthGateway(b, 1, false) }
func BenchmarkHealthOn1Worker(b *testing.B)   { benchHealthGateway(b, 1, true) }
func BenchmarkHealthOff4Workers(b *testing.B) { benchHealthGateway(b, 4, false) }
func BenchmarkHealthOn4Workers(b *testing.B)  { benchHealthGateway(b, 4, true) }

// TestFlightRecorderAllocNeutral asserts the recorder-on pipeline
// workload allocates exactly as much as the recorder-off twin: attaching
// a flight recorder may not cost the decode hot path a single
// allocation. Each side is measured several times and compared on its
// minimum malloc count — GC and scheduler noise only ever add mallocs,
// so the minima are the true per-run budgets.
func TestFlightRecorderAllocNeutral(t *testing.T) {
	const tags, framesPerTag, rounds = 4, 4, 4
	ts, err := saiyan.NewTagSet(saiyan.DefaultParams(), saiyan.DefaultLinkBudget(), tags, 20, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []saiyan.PipelineJob
	for f := 0; f < framesPerTag; f++ {
		for _, tag := range ts.Tags {
			frame, want, err := ts.Frame(tag.ID, uint64(f))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, saiyan.PipelineJob{
				Tag: tag.ID, Frame: frame, RSSDBm: tag.RSSDBm, Want: want,
				Trace: flight.TraceID(0, 0, tag.ID, uint64(f)),
			})
		}
	}
	measure := func(rec *saiyan.FlightRecorder) uint64 {
		cfg := saiyan.DefaultPipelineConfig()
		cfg.Workers = 1
		cfg.Seed = 7
		cfg.DiscardResults = true
		cfg.Flight = rec
		best := uint64(math.MaxUint64)
		for i := 0; i < rounds; i++ {
			p, err := saiyan.NewPipeline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.Precalibrate(-60)
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			if err := p.Submit(jobs...); err != nil {
				t.Fatal(err)
			}
			p.Drain()
			runtime.ReadMemStats(&m1)
			if n := m1.Mallocs - m0.Mallocs; n < best {
				best = n
			}
		}
		return best
	}
	off := measure(nil)
	on := measure(saiyan.NewFlightRecorder(saiyan.FlightOptions{Shards: 2}))
	if off != on {
		t.Errorf("flight recorder changed the allocation budget: off=%d mallocs/run, on=%d mallocs/run", off, on)
	}
}
