package saiyan_test

// Go benchmarks for what the repository benchmark (bench/, run with
// `make bench`) does not run: the per-frame pipeline path behind
// record/replay/golden on both datapaths, single-symbol and calibration
// micro-costs, and the telemetry On/Off twins. End-to-end and per-layer
// numbers for the capture, sparse and service paths come from bench/.
//
//	go test -run '^$' -bench . -benchmem

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"saiyan"
	"saiyan/internal/flight"
)

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
// attached, so the -benchmem columns show the instrumentation budget:
// allocs/op must match the plain variants, because the decode hot path
// records through pre-registered atomic handles only.
// TestTelemetryAllocNeutral asserts it.
func BenchmarkPipeline4Workers4TagsMetrics(b *testing.B)  { benchPipeline(b, 4, 4, true) }
func BenchmarkPipeline8Workers32TagsMetrics(b *testing.B) { benchPipeline(b, 8, 32, true) }

// Fixed-point datapath benchmarks: the same traffic matrix demodulated
// with the float64 reference and the Q1.15 integer MCU datapath. Both
// variants report ns/frame from the pipeline's own clock, so one run
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
// `-bench Fxp` runs both sides of the comparison.
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
// stamping, run with and without a recorder attached. The twins show the
// flight recorder's hot-path budget the same way the Metrics twins show
// the obs registry's: allocs/op must be identical, because ring appends
// write into preallocated per-worker shards through atomics only.
// TestTelemetryAllocNeutral asserts it.

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

// TestTelemetryAllocNeutral asserts that attaching a write-only
// telemetry plane, the obs registry or the flight recorder, costs the
// per-frame pipeline no allocation: a run with the plane allocates exactly
// as much as the plain run at the same worker count. Each side is measured
// several times and compared on its minimum malloc count — GC and
// scheduler noise only ever add mallocs, so the minima are the true
// per-run budgets.
func TestTelemetryAllocNeutral(t *testing.T) {
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
	// measure returns the minimum mallocs per run; attach, if set, hands
	// the config one plane, built once and shared by every round.
	measure := func(t *testing.T, workers int, attach func(*saiyan.PipelineConfig)) uint64 {
		cfg := saiyan.DefaultPipelineConfig()
		cfg.Workers = workers
		cfg.Seed = 7
		cfg.DiscardResults = true
		if attach != nil {
			attach(&cfg)
		}
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
	planes := []struct {
		name   string
		attach func(*saiyan.PipelineConfig)
	}{
		{"metrics", func(cfg *saiyan.PipelineConfig) { cfg.Metrics = saiyan.NewObsRegistry() }},
		{"flight", func(cfg *saiyan.PipelineConfig) {
			cfg.Flight = saiyan.NewFlightRecorder(saiyan.FlightOptions{Shards: cfg.Workers + 1})
		}},
	}
	for _, workers := range []int{1, 2} {
		off := measure(t, workers, nil)
		for _, pl := range planes {
			t.Run(fmt.Sprintf("%s/workers=%d", pl.name, workers), func(t *testing.T) {
				if on := measure(t, workers, pl.attach); on != off {
					t.Errorf("%s changed the allocation budget: off=%d mallocs/run, on=%d mallocs/run", pl.name, off, on)
				}
			})
		}
	}
}
