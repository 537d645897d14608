// Package saiyan is a from-scratch, simulation-backed reproduction of
// "Saiyan: Design and Implementation of a Low-power Demodulator for LoRa
// Backscatter Systems" (Guo et al., USENIX NSDI 2022).
//
// Saiyan lets an energy-harvesting backscatter tag demodulate LoRa feedback
// packets from an access point hundreds of meters away, enabling on-demand
// retransmission, channel hopping, and rate adaptation. The trick is a SAW
// filter repurposed as a frequency-to-amplitude converter: a LoRa chirp
// (frequency modulated) becomes an amplitude-modulated signal whose peak
// position encodes the symbol, decodable with a double-threshold comparator
// and a kHz-rate sampler instead of a 40 mW ADC+FFT receiver.
//
// The original artifact is a PCB prototype measured over the air; this
// package substitutes a behavioral simulation of the entire analog chain
// (SAW response, LNA, square-law envelope detection with flicker/DC
// impairments, cyclic-frequency shifting, comparator, sampler) driven by a
// calibrated 433 MHz link budget. See DESIGN.md for the substitution
// argument and EXPERIMENTS.md for paper-vs-measured results on every table
// and figure.
//
// # Quick start
//
//	cfg := saiyan.DefaultConfig()               // SF7, BW 500 kHz, CR 1, full chain
//	demod, err := saiyan.NewDemodulator(cfg)
//	if err != nil { ... }
//	rng := saiyan.NewRand(1, 2)
//	rss := saiyan.DefaultLinkBudget().RSSDBm(100) // feedback signal at 100 m
//	demod.Calibrate(rss, rng)                     // per-distance thresholds, like the prototype
//	frame, _ := saiyan.NewFrame(cfg.Params, []int{1, 0, 1, 1})
//	symbols, detected, err := demod.ProcessFrame(frame, rss, rng)
//
// Higher-level experiment harnesses live behind Link (BER, throughput,
// demodulation/detection range) and the experiment registry
// (Experiments / RunExperiment), which regenerates every evaluation artifact
// of the paper.
//
// # Concurrent multi-tag pipeline
//
// A gateway-scale deployment demodulates frames from many tags at once.
// Pipeline fans submitted frames out to a pool of demodulator workers with
// bounded-queue backpressure and pooled sample buffers:
//
//	tags, _ := saiyan.NewTagSet(saiyan.DefaultParams(), saiyan.DefaultLinkBudget(), 24, 20, 140, seed)
//	cfg := saiyan.DefaultPipelineConfig()      // one worker per CPU
//	cfg.Seed = seed
//	p, _ := saiyan.NewPipeline(cfg)
//	frame, want, _ := tags.Frame(0, 0)
//	stats, _ := p.Collect(func() error {        // submit on this goroutine
//		return p.Submit(saiyan.PipelineJob{Tag: 0, Frame: frame, RSSDBm: tags.Tags[0].RSSDBm, Want: want})
//	}, func(r saiyan.PipelineResult) { ... })  // each result, in completion order
//	// stats: frames/s, Msamples/s, SER, PRR
//
// Determinism survives concurrency: each frame's noise comes from an RNG
// shard keyed by its submission sequence number and calibration is seeded
// per distance quantum, so a fixed seed yields a bit-identical symbol
// stream whether one worker runs or sixteen. Workers share a per-distance
// calibration table (quantized to 1 dB, mirroring the prototype's
// per-distance threshold tables) and clone the calibrated master
// demodulator on first use.
//
// # Record & replay
//
// Any pipeline run can be captured to a portable trace file and
// re-demodulated later, bit-exactly — the offline workload class that
// recorded-capture demodulators (direwolf lineage, LoRea-style
// backscatter receivers) are evaluated on:
//
//	tags, _ := saiyan.NewTagSet(saiyan.DefaultParams(), saiyan.DefaultLinkBudget(), 16, 20, 140, seed)
//	src, _ := saiyan.NewTagTrafficSource(tags, 8)       // live generated traffic
//	cfg := saiyan.DefaultPipelineConfig()
//	cfg.Seed, cfg.DiscardResults = seed, true
//	live, _ := saiyan.RecordTrace(ctx, "run.trace.gz", cfg, src, false)
//
//	replayed, _ := saiyan.ReplayTrace("run.trace.gz", 0) // fresh pipeline, any worker count
//	_, mismatches, _ := saiyan.VerifyTrace("run.trace.gz", 4)
//	// replayed SER/PRR/detect == live, mismatches == 0
//
// The trace header carries the full demodulator configuration, the
// pipeline seed, and the calibration quantum; every record carries the
// transmitted symbols, RSS, the frame's noise-shard seed, and the decoded
// decisions (optionally the rendered trajectory/envelope samples). Replay
// therefore reconstructs the identical signal and thresholds regardless of
// where or with how many workers the trace is replayed, and VerifyTrace
// proves it against the recorded decisions.
//
// # Continuous-stream reception
//
// Every workload above consumes pre-cut frames with oracle boundaries. A
// deployed receiver consumes an unbroken envelope stream and must *find*
// packets in it first — the paper's Section 3.2 packet detection. The
// stream layer renders and demodulates exactly that workload:
//
//	capture, _ := saiyan.RenderTimeline(tags, saiyan.DefaultConfig(),
//	    saiyan.TimelineConfig{FramesPerTag: 4}) // frames, idle gaps, one continuous envelope
//	pcfg := saiyan.DefaultPipelineConfig()
//	pcfg.Seed, pcfg.DiscardResults = seed, true
//	scfg := saiyan.StreamConfig{Demod: saiyan.DefaultConfig(), Seed: seed}
//	st, _ := saiyan.DemodulateStream(ctx, pcfg, scfg, capture, 256 /* chunk samples */)
//	// st.Recovery(): scheduled frames decoded error-free
//
// RenderTimeline schedules every tag's frames along one timeline (idle
// gaps, optional collisions) and renders the superposed antenna signal
// through the analog chain in a single pass. The stream segmenter then
// hunts preambles across arbitrary chunk deliveries — carrier-sense gate,
// amplitude-gated correlation detection, symbol-aligned window extraction
// with state carried across chunk boundaries — and feeds each extracted
// window into the same worker pool as every other workload. Workers
// bootstrap thresholds from the window's own preamble (AGC), re-sync on
// the end of the preamble run (robust to the noise-degraded leading
// chirp), and decode. Segmentation overlaps demodulation, and the outcome
// is identical for any worker count and any chunk size. NewStreamSource
// exposes the segmenting source directly for custom pipelines.
//
// # Closed-loop gateway service
//
// The gateway subsystem composes everything above into the paper's end
// state: a long-running access point serving a churning tag deployment
// over multiple concurrent ingest channels, closing the feedback loop the
// demodulator makes possible:
//
//	cfg := saiyan.DefaultGatewayConfig()
//	cfg.Seed, cfg.Channels, cfg.Tags = seed, 2, 8
//	cfg.Degrade = []saiyan.GatewayDegradation{{Epoch: 2, Channel: 0, AttenDB: 12}}
//	gw, _ := saiyan.NewGateway(cfg)
//	reports, _ := gw.Run(ctx, 6)   // epochs of churn: joins, leaves, mobility
//	snap := gw.Snapshot()          // per-tag sessions + aggregate, deterministic
//	// snap.DeliveryRatio(): unique frames delivered error-free / scheduled
//
// Each epoch renders every channel's population into a continuous capture
// (grouped by commanded rate K, which sets the PHY alphabet; groups render
// concurrently, up to Workers at a time, with bit-identical results), demodulates
// all captures through a shared worker pool, and folds the decode results
// into a per-tag session registry: frame dedup by payload sequence
// number, sliding-window PRR/SNR/offset accounting. The control loop then
// adapts every link — the rate adapter picks bits per chirp from a link-margin
// BER model, collapsed delivery windows trigger a hop off degraded
// channels, missing frames are re-requested and deduplicated on recovery,
// and SNR drift re-anchors calibration — by synthesizing downlink
// Commands through the real 24-bit codec and applying delivered commands
// to the simulated deployment. Snapshots are byte-identical at any worker
// count for a fixed seed; see `saiyan serve` and the service workload in
// bench/.
//
// # Serving over the network
//
// A gateway can be served over TCP: NewServer binds a listener, Serve runs
// the epoch loop, and any number of concurrent subscribers receive the
// per-frame decode events and per-epoch metrics over a versioned,
// CRC-framed wire protocol (ServerProtocolVersion; internal/server holds
// the byte-level grammar). The same connection carries an operator control
// plane: pause/resume, rate overrides, channel-plan swaps, and server-side
// frame capture:
//
//	gw, _ := saiyan.NewGateway(cfg)
//	srv, _ := saiyan.NewServer(saiyan.ServerConfig{Gateway: gw, Epochs: 10})
//	go srv.Serve(ctx)                        // cancel ctx to stop early
//
//	c, _ := saiyan.DialServer(srv.Addr().String())
//	c.Subscribe(true, true, false, false)           // frame events + epoch metrics; no flight dumps or health deltas
//	c.OverrideRate(-1, 3)                    // control: force K=3 on every tag
//	for {
//		ev, err := c.Next()                  // ServerEventFrame, -Epoch, -Snapshot, ...
//		if err != nil || ev.Kind == saiyan.ServerEventBye { break }
//	}
//
// Subscribers can never stall the service: each client owns bounded send
// queues, a fanout that would block drops the message and counts it, and
// the per-epoch ServerClientStats message reports the drop counters back
// to the affected client. Control requests are fire-and-forget and are
// applied by the epoch loop at epoch boundaries — rejections come back
// asynchronously as ServerEventError — so the determinism invariant
// survives serving: the same control sequence at the same boundaries
// yields byte-identical snapshots at any worker count. Server-side
// captures (ServerClient.StartCapture / StopCapture) record the frame
// stream in the wire format; they are an operator opt-in — client paths
// are confined to ServerConfig.CaptureDir, and a server without one
// rejects every capture request. ReadFrameCapture loads capture files
// back, returning partial results alongside ErrServerTruncated for files
// cut short.
// `saiyan serve -listen` and `saiyan watch` are the CLI faces of this
// layer; examples/wire is the single-process walkthrough.
//
// # Observability
//
// Every hot layer can record into an ObsRegistry (internal/obs): atomic
// counters, gauges, and fixed log-bucket histograms whose writes are
// lock-free (histograms shard per worker and merge on read). Build one
// with NewObsRegistry and hand the same registry to
// PipelineConfig.Metrics, StreamConfig.Metrics, GatewayConfig.Metrics
// (forwarded to every pipeline and segmenter the gateway builds), and
// ServerConfig.Metrics:
//
//	reg := saiyan.NewObsRegistry()
//	cfg.Metrics = reg                        // gateway: stage timings, cmd outcomes, ...
//	srv, _ := saiyan.NewServer(saiyan.ServerConfig{Gateway: gw, Metrics: reg})
//	h := saiyan.NewObsHandler(saiyan.ObsHandlerConfig{Registry: reg, Snapshot: srv.SnapshotJSON})
//	go http.Serve(ln, h)                     // /metrics /healthz /snapshot /flight /health /timeseries /debug/pprof/
//
// NewObsHandler serves the registry as Prometheus text exposition
// (version 0.0.4) plus a JSON gateway snapshot and the pprof handlers; a
// server with Metrics set additionally streams the full registry dump to
// metrics subscribers once per epoch (ServerEventObs). The registry is
// write-only by contract — no control decision ever reads a metric — so
// attaching one changes nothing observable: gateway snapshots stay
// byte-identical with metrics on or off at any worker count, and the
// decode hot path records without allocating (both pinned by tests).
// `saiyan serve -http` and `saiyan watch` are the CLI faces.
//
// Next to the registry rides the flight recorder (internal/flight), the
// per-frame black box: every layer that touches a frame appends a
// fixed-size span — keyed by a trace ID derived purely from (epoch,
// channel, tag, seq), never from a clock — into per-worker ring buffers,
// and an anomaly (decode failure, dedup miss, retransmission, channel
// hop, PRR collapse, operator override) snapshots the rings into a dump
// carrying the involved traces' decision chains. Build one with
// NewFlightRecorder (at least Workers+1 shards) and hand the same
// recorder to GatewayConfig.Flight and ServerConfig.Flight; dumps
// surface on the /flight endpoint (ObsHandlerConfig.Flight), as 0x18
// wire messages to subscribers that asked for them (the third Subscribe
// argument), and through `saiyan watch -flight`. The recorder obeys the
// same write-only contract as the registry: attaching one never changes
// a snapshot, appends never allocate, and dumps are byte-identical at
// any worker count. Histogram buckets carry the last landing trace ID as
// an exemplar (JSON snapshots only), linking a latency outlier back to
// one concrete frame's chain.
//
// The third plane is link health (internal/health): an RRD-style
// time-series store — per-epoch bins folding into fixed-size 8x and 64x
// ring tiers, so memory never grows with uptime — plus a declarative SLO
// rules engine (threshold, window-mean, consecutive-breach, burn-rate)
// and an alert journal. Build one with NewHealthStore (seed the rules
// with DefaultHealthRules or your own []HealthRule) and hand it to
// GatewayConfig.Health and ServerConfig.Health. The gateway appends its
// series and seals the epoch at the tail of each epoch, on the epoch
// goroutine, from deterministic schedule state only; alert IDs are pure
// hashes of (rule, series, epoch) and firing alerts carry flight-trace
// exemplars, so rollups, journals, and deltas are byte-identical at any
// worker count. The plane surfaces on the /health and /timeseries
// endpoints (ObsHandlerConfig), as 0x19 wire deltas to subscribers that
// set the fourth Subscribe argument (ServerEventHealth), and through
// `saiyan watch -health` and the `saiyan health` sparkline view.
//
// # Fixed-point MCU datapath
//
// The paper's decode logic runs on a 19.6 uW MCU (and 2 uW of ASIC digital
// logic, Section 4.3), not on float64. Setting Config.Datapath to
// DatapathFixed swaps the payload decode stage for the integer subsystem in
// internal/fxp: an ADC quantizes the sampler envelope into left-aligned
// Q1.15 codes at Config.ADCBits (default 12), and both decoders — peak
// tracking and template correlation — run in saturating integer arithmetic
// with a division-free cross-multiplication compare and a LUT+Newton
// integer square root. The knob threads through every workload: per-frame
// pipelines, the continuous-stream decode path, and the gateway all honor
// it, and `saiyan fxp` / `saiyan stream -fxp` / `saiyan serve -fxp`
// exercise it from the CLI.
//
//	cfg := saiyan.DefaultPipelineConfig()
//	cfg.Demod.Datapath = saiyan.DatapathFixed
//	cfg.Demod.ADCBits = 12
//	p, _ := saiyan.NewPipeline(cfg)
//	st, _ := p.Collect(func() error { return p.Submit(jobs...) }, nil)
//	mcu := saiyan.DefaultMCUBudget()
//	uw := mcu.DutyCycledPowerUW(st.FxpCycles, airtime, 0.01) // vs saiyan.MCUTable2UW
//
// The integer decode agrees with the float reference on >= 99 % of payload
// symbols at moderate SNR (the parity harness sweeps SNR, coding rate, CFO,
// and decoder mode), and is bit-exact deterministic — symbol stream and
// cycle ledger both — at any worker count. Every integer operation is
// counted per operation class, priced by a Cortex-M4-class cycle model, and
// converted to microwatts by MCUBudget for comparison against the Table 2
// MCU entry. See `saiyan fxp` and BenchmarkFxp*.
//
// # Tooling
//
// The properties the sections above promise — snapshot determinism at any
// worker count, zero allocations on the frame path with metrics on, and
// the integer-only Q1.15 discipline — are enforced mechanically by
// cmd/saiyanvet, a custom static-analysis suite (package internal/lint)
// that runs blocking in CI and locally via `make lint` or
// `go vet -vettool`. Hot functions are annotated //saiyan:hotpath;
// deliberate exceptions carry //lint:allow <analyzer> <reason>.
// Performance numbers come from the repository benchmark, the separate
// saiyan/bench module (`make bench`); CI runs its tests, a tiny-scale run
// of every workload, as a blocking step.
//
// # Trace format and compatibility
//
// Traces are format version 1: a chunk stream (internal/chunk specifies
// the prelude and the CRC32 framing shared with the wire protocol and
// flight dumps; internal/trace specifies the chunks) holding a JSON
// header, one binary chunk per frame, and a trailing frame count —
// optionally gzip-compressed (".gz" paths; readers sniff the content).
// Compatibility policy: readers skip unknown chunk types whose CRC
// verifies, so new chunk kinds can be added without a version bump;
// unknown JSON header fields are ignored on read for the same reason. The
// version number only changes when the chunk framing itself changes
// incompatibly, and readers reject versions they do not know rather than
// guessing. A file cut short of its trailer stays readable up to the cut
// and then reports a truncation error — errors.Is(err, ErrServerTruncated)
// holds, since traces share the wire's framing codec; flipped bits surface
// as a corruption error, never as silently wrong samples.
package saiyan
