// Command saiyan runs the paper-reproduction experiments and the
// gateway-scale demodulation workloads from the terminal.
//
// Usage:
//
//	saiyan list                     enumerate every table/figure runner
//	saiyan run fig16 [fig25 ...]    run selected experiments
//	saiyan run all                  run the whole registry
//	saiyan record -out t.trace.gz [-tags M -frames F -workers N -samples]
//	                                demodulate live traffic and record it
//	saiyan replay [-workers N -verify] <trace>
//	                                re-demodulate a recorded trace
//	saiyan stream [-tags M -frames F -workers N -chunk S -overlap K]
//	                                demodulate a continuous multi-tag capture
//	                                from raw samples (preamble hunting)
//	saiyan serve [-channels C -tags M -frames F -epochs E -workers N ...]
//	                                closed-loop gateway service: sessions,
//	                                link adaptation, multi-channel ingest
//	saiyan serve -listen HOST:PORT [-epochs E -gap D ...]
//	                                same service as a network daemon: frames
//	                                and metrics streamed over the wire
//	                                protocol (-epochs 0 = until interrupted)
//	saiyan serve -http HOST:PORT    also expose the telemetry plane:
//	                                /metrics (Prometheus text), /healthz,
//	                                /snapshot, /flight (anomaly black
//	                                boxes), /health + /timeseries (the
//	                                link-health plane), /debug/pprof/
//	                                (combines with -listen or the local
//	                                epoch loop)
//	saiyan watch [-frames -metrics -flight -health -n N -rate T:K -rebalance] HOST:PORT
//	                                subscribe to a serving gateway and print
//	                                the live frame/metrics transcript (plus
//	                                the per-epoch obs dump when the server
//	                                runs with -http, flight-recorder anomaly
//	                                dumps with -flight, and link-health
//	                                deltas with -health)
//	saiyan health [-series S -tier T -width W] http://HOST:PORT
//	                                query a serving gateway's telemetry
//	                                plane: rollup sparklines per series and
//	                                the active-alert table
//	saiyan fxp [-tags M -frames F -workers N -adcbits B]
//	                                float vs fixed-point (MCU) datapath:
//	                                parity, speed, cycle/energy budget
//	saiyan wave [-wave symbol|frame|saw -symbol S -k K -mode M -seed N]
//	                                dump simulated waveforms as CSV
//	                                (Figures 6 and 8; -seed 0 = noise free)
//	saiyan -pipeline [-workers N -tags M -frames F]
//	                                multi-tag concurrent demodulation demo
//
// Global flags (before the subcommand):
//
//	-quick        reduced Monte-Carlo fidelity (seconds instead of minutes)
//	-seed N       PRNG seed (default 20220404)
//	-pipeline     run the concurrent gateway pipeline instead of experiments
//	-workers N    pipeline demodulator workers (default: one per CPU)
//	-tags M       simulated tag population (default 16)
//	-frames F     frames per tag (default 4)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"saiyan"
)

// globals are the flags shared by every subcommand, parsed before the
// subcommand name.
type globals struct {
	quick   bool
	seed    uint64
	workers int
	tags    int
	frames  int
}

// subcommand is one entry of the dispatch table: its runner receives the
// arguments after the subcommand name plus the parsed globals.
type subcommand struct {
	name    string
	summary string
	run     func(args []string, g *globals) error
}

// subcommands is the single dispatch table; usage() renders it, main()
// dispatches over it, and unknown names share one error path.
var subcommands = []subcommand{
	{"list", "enumerate every table/figure runner", runList},
	{"run", "run selected experiments (ids or 'all')", runExperiments},
	{"record", "demodulate live traffic and record a trace", runRecord},
	{"replay", "re-demodulate a recorded trace", runReplay},
	{"stream", "demodulate a continuous multi-tag capture from raw samples", runStream},
	{"serve", "closed-loop gateway: sessions, link adaptation, multi-channel ingest; -listen serves the wire protocol", runServe},
	{"watch", "subscribe to a serving gateway and print its live transcript", runWatch},
	{"health", "query a serving gateway's link-health plane: sparklines + active alerts", runHealth},
	{"fxp", "compare the float and fixed-point (MCU) datapaths: parity, speed, cycle budget", runFxp},
	{"wave", "dump simulated chirp, envelope and comparator waveforms as CSV (Figures 6 and 8)", runWave},
}

// usageError prints a consistent usage failure and exits 2 — the one exit
// path for bad invocations, whatever subcommand (or conflict) caused them.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "saiyan: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run 'saiyan' without arguments for usage")
	os.Exit(2)
}

func main() {
	var g globals
	flag.BoolVar(&g.quick, "quick", false, "run with reduced Monte-Carlo fidelity")
	flag.Uint64Var(&g.seed, "seed", 20220404, "experiment PRNG seed")
	pipelineMode := flag.Bool("pipeline", false, "run the concurrent multi-tag demodulation pipeline")
	flag.IntVar(&g.workers, "workers", 0, "pipeline workers (0 = one per CPU)")
	flag.IntVar(&g.tags, "tags", 16, "simulated tag population")
	flag.IntVar(&g.frames, "frames", 4, "frames per tag")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()

	if *pipelineMode {
		// -pipeline is a complete mode of its own: trailing positional
		// arguments would silently be ignored, so make the conflict loud.
		if len(args) > 0 {
			usageError("-pipeline takes no subcommand, got %q; use either 'saiyan -pipeline' or 'saiyan %s'", args, args[0])
		}
		if err := runPipeline(&g); err != nil {
			fmt.Fprintf(os.Stderr, "saiyan: pipeline: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	for _, sc := range subcommands {
		if sc.name != args[0] {
			continue
		}
		if err := sc.run(args[1:], &g); err != nil {
			fmt.Fprintf(os.Stderr, "saiyan: %s: %v\n", sc.name, err)
			os.Exit(1)
		}
		return
	}
	usageError("unknown subcommand %q", args[0])
}

// runList enumerates the experiment registry.
func runList(args []string, _ *globals) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	for _, e := range saiyan.Experiments() {
		fmt.Printf("%-6s  %s\n        paper: %s\n", e.ID, e.Title, e.PaperResult)
	}
	return nil
}

// runExperiments executes selected registry entries.
func runExperiments(ids []string, g *globals) error {
	if len(ids) == 0 {
		return fmt.Errorf("need experiment ids or 'all'")
	}
	opts := saiyan.DefaultExperimentOptions()
	opts.Quick = g.quick
	opts.Seed = g.seed
	if len(ids) == 1 && ids[0] == "all" {
		ids = ids[:0]
		for _, e := range saiyan.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		start := time.Now()
		if err := saiyan.RunExperiment(id, opts, os.Stdout); err != nil {
			return fmt.Errorf("%s failed: %w", id, err)
		}
		fmt.Printf("(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runPipeline simulates a gateway serving a multi-tag deployment: every tag
// sends `frames` downlink frames and the worker pool demodulates them
// concurrently, printing the aggregate throughput/error snapshot.
func runPipeline(g *globals) error {
	src, cfg, err := liveTraffic(g)
	if err != nil {
		return err
	}
	p, err := saiyan.NewPipeline(cfg)
	if err != nil {
		return err
	}
	st, err := p.Run(context.Background(), src)
	if err != nil {
		return err
	}
	fmt.Printf("pipeline: %d tags x %d frames (20-150 m)\n%v\n", g.tags, g.frames, st)
	return nil
}

// liveTraffic builds the live workload -pipeline and record share: g.tags
// tags placed 20-150 m out sending g.frames frames each, and a stats-only
// pipeline config for it.
func liveTraffic(g *globals) (saiyan.PipelineSource, saiyan.PipelineConfig, error) {
	cfg := saiyan.DefaultPipelineConfig()
	cfg.Workers = g.workers
	cfg.Seed = g.seed
	cfg.DiscardResults = true
	ts, err := saiyan.NewTagSet(saiyan.DefaultParams(), saiyan.DefaultLinkBudget(), g.tags, 20, 150, g.seed)
	if err != nil {
		return nil, cfg, err
	}
	src, err := saiyan.NewTagTrafficSource(ts, g.frames)
	return src, cfg, err
}

// runRecord demodulates live multi-tag traffic while capturing every frame
// and its decoded decisions to a trace file.
func runRecord(args []string, g *globals) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	out := fs.String("out", "", "trace output path (gzip when it ends in .gz); required")
	fs.IntVar(&g.tags, "tags", g.tags, "simulated tag population")
	fs.IntVar(&g.frames, "frames", g.frames, "frames per tag")
	fs.IntVar(&g.workers, "workers", g.workers, "pipeline workers (0 = one per CPU)")
	fs.Uint64Var(&g.seed, "seed", g.seed, "recording PRNG seed")
	samples := fs.Bool("samples", false, "also record rendered trajectory/envelope samples (large)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		fs.Usage()
		return fmt.Errorf("-out is required")
	}
	if extra := fs.Args(); len(extra) > 0 {
		return fmt.Errorf("unexpected arguments %q", extra)
	}
	src, cfg, err := liveTraffic(g)
	if err != nil {
		return err
	}
	st, err := saiyan.RecordTrace(context.Background(), *out, cfg, src, *samples)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d tags x %d frames -> %s\n%v\n", g.tags, g.frames, *out, st)
	return nil
}

// runReplay re-demodulates a recorded trace, optionally verifying every
// decode against the decisions stored in it.
func runReplay(args []string, g *globals) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.IntVar(&g.workers, "workers", g.workers, "pipeline workers (0 = one per CPU)")
	verify := fs.Bool("verify", false, "compare every decode against the recorded decisions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("need exactly one trace path, got %d", fs.NArg())
	}
	path := fs.Arg(0)
	if *verify {
		st, mismatches, err := saiyan.VerifyTrace(path, g.workers)
		if err != nil {
			return err
		}
		fmt.Printf("replayed %s\n%v\n", path, st)
		if mismatches != 0 {
			return fmt.Errorf("%d of %d frames diverged from the recorded decisions", mismatches, st.FramesOut)
		}
		fmt.Println("verify: every decode matches the recorded decisions")
		return nil
	}
	st, err := saiyan.ReplayTrace(path, g.workers)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %s\n%v\n", path, st)
	return nil
}

// runStream renders a continuous multi-tag capture (frames at scheduled
// offsets with idle gaps) and demodulates it from raw samples: segmentation
// hunts the preambles, the worker pool decodes the extracted windows.
func runStream(args []string, g *globals) error {
	fs := flag.NewFlagSet("stream", flag.ContinueOnError)
	fs.IntVar(&g.tags, "tags", g.tags, "simulated tag population")
	fs.IntVar(&g.frames, "frames", g.frames, "frames per tag")
	fs.IntVar(&g.workers, "workers", g.workers, "pipeline workers (0 = one per CPU)")
	fs.Uint64Var(&g.seed, "seed", g.seed, "capture PRNG seed")
	chunk := fs.Int("chunk", 256, "delivery chunk size in sampler samples (0 = one chunk)")
	overlap := fs.Int("overlap", 0, "schedule every n-th frame as a collision (0 = none)")
	useFxp := fs.Bool("fxp", false, "decode with the fixed-point MCU datapath")
	adcBits := fs.Int("adcbits", 12, "ADC bit depth for -fxp (2-15)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if extra := fs.Args(); len(extra) > 0 {
		return fmt.Errorf("unexpected arguments %q", extra)
	}
	ts, err := saiyan.NewTagSet(saiyan.DefaultParams(), saiyan.DefaultLinkBudget(), g.tags, 20, 100, g.seed)
	if err != nil {
		return err
	}
	capture, err := saiyan.RenderTimeline(ts, saiyan.DefaultConfig(), saiyan.TimelineConfig{
		FramesPerTag: g.frames,
		OverlapEvery: *overlap,
	})
	if err != nil {
		return err
	}
	pcfg := saiyan.DefaultPipelineConfig()
	pcfg.Workers = g.workers
	pcfg.Seed = g.seed
	pcfg.DiscardResults = true
	dcfg := saiyan.DefaultConfig()
	if *useFxp {
		dcfg.Datapath = saiyan.DatapathFixed
		dcfg.ADCBits = *adcBits
	}
	pcfg.Demod = dcfg
	scfg := saiyan.StreamConfig{Demod: dcfg, Seed: g.seed}
	st, err := saiyan.DemodulateStream(context.Background(), pcfg, scfg, capture, *chunk)
	if err != nil {
		return err
	}
	fmt.Printf("stream: %d tags x %d frames over %d samples (%.1f s of air)\n",
		g.tags, g.frames, st.SamplesIn, float64(st.SamplesIn)/capture.SampleRateHz)
	fmt.Printf("segmentation: %d windows, %d matched to the %d scheduled frames\n",
		st.WindowsEmitted, st.WindowsMatched, st.FramesScheduled)
	fmt.Printf("recovery: %.1f%%  (%d frames decoded error-free)\n", 100*st.Recovery(), st.FramesCorrect)
	fmt.Printf("segmentation throughput: %.2f Msamples/s of capture\n%v\n", st.SamplesPerSec()/1e6, st.Stats)
	if *useFxp {
		budget := saiyan.DefaultMCUBudget()
		span := time.Duration(float64(st.SamplesIn) / capture.SampleRateHz * float64(time.Second))
		fmt.Printf("fxp datapath: %d cycles, %.2f%% of the %.0f MHz clock over the capture, %.2f uW at 1%% duty (Table 2 MCU: %.1f uW)\n",
			st.FxpCycles, 100*budget.LoadFraction(st.FxpCycles, span), budget.ClockHz/1e6,
			budget.DutyCycledPowerUW(st.FxpCycles, span, 0.01), saiyan.MCUTable2UW)
	}
	return nil
}

// runFxp demodulates one traffic matrix through both datapaths — the
// float64 reference and the Q1.15 integer MCU path — and reports symbol
// parity, per-frame wall time, and the integer path's cycle budget priced
// against the Table 2 MCU entry.
func runFxp(args []string, g *globals) error {
	fs := flag.NewFlagSet("fxp", flag.ContinueOnError)
	fs.IntVar(&g.tags, "tags", g.tags, "simulated tag population")
	fs.IntVar(&g.frames, "frames", g.frames, "frames per tag")
	fs.IntVar(&g.workers, "workers", g.workers, "pipeline workers (0 = one per CPU)")
	fs.Uint64Var(&g.seed, "seed", g.seed, "traffic PRNG seed")
	bits := fs.Int("adcbits", 12, "ADC quantizer bit depth (2-15)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if extra := fs.Args(); len(extra) > 0 {
		return fmt.Errorf("unexpected arguments %q", extra)
	}

	ts, err := saiyan.NewTagSet(saiyan.DefaultParams(), saiyan.DefaultLinkBudget(), g.tags, 20, 120, g.seed)
	if err != nil {
		return err
	}
	type tfFrame struct {
		job     saiyan.PipelineJob
		airtime float64
	}
	var traffic []tfFrame
	for f := 0; f < g.frames; f++ {
		for _, tag := range ts.Tags {
			frame, want, err := ts.Frame(tag.ID, uint64(f))
			if err != nil {
				return err
			}
			traffic = append(traffic, tfFrame{
				job:     saiyan.PipelineJob{Tag: tag.ID, Frame: frame, RSSDBm: tag.RSSDBm, Want: want},
				airtime: frame.Duration(),
			})
		}
	}

	runOne := func(dp saiyan.Datapath) (saiyan.PipelineStats, map[uint64][]int, error) {
		cfg := saiyan.DefaultPipelineConfig()
		cfg.Workers = g.workers
		cfg.Seed = g.seed
		cfg.Demod.Datapath = dp
		cfg.Demod.ADCBits = *bits
		pl, err := saiyan.NewPipeline(cfg)
		if err != nil {
			return saiyan.PipelineStats{}, nil, err
		}
		decoded := make(map[uint64][]int, len(traffic))
		st, err := pl.Collect(func() error {
			for _, tf := range traffic {
				if err := pl.Submit(tf.job); err != nil {
					return err
				}
			}
			return nil
		}, func(r saiyan.PipelineResult) { decoded[r.Seq] = r.Symbols })
		return st, decoded, err
	}

	flStats, flSyms, err := runOne(saiyan.DatapathFloat)
	if err != nil {
		return err
	}
	fxStats, fxSyms, err := runOne(saiyan.DatapathFixed)
	if err != nil {
		return err
	}

	total, agree := 0, 0
	var airtime float64
	for seq, tf := range traffic {
		airtime += tf.airtime
		a, b := flSyms[uint64(seq)], fxSyms[uint64(seq)]
		for i := range a {
			total++
			if i < len(b) && a[i] == b[i] {
				agree++
			}
		}
	}

	nsPerFrame := func(st saiyan.PipelineStats) float64 {
		if st.FramesOut == 0 {
			return 0
		}
		return float64(st.Elapsed.Nanoseconds()) / float64(st.FramesOut)
	}
	fmt.Printf("fxp: %d tags x %d frames, %d-bit ADC\n", g.tags, g.frames, *bits)
	fmt.Printf("float: %v  (%.0f ns/frame)\n", flStats, nsPerFrame(flStats))
	fmt.Printf("fxp:   %v  (%.0f ns/frame)\n", fxStats, nsPerFrame(fxStats))
	if total > 0 {
		fmt.Printf("parity: %d/%d symbols agree (%.2f%%)\n", agree, total, 100*float64(agree)/float64(total))
	}

	budget := saiyan.DefaultMCUBudget()
	span := time.Duration(airtime * float64(time.Second))
	cycles := fxStats.FxpCycles
	fmt.Printf("cycle budget: %d cycles over %.1f ms of air (%.0f cycles/frame)\n",
		cycles, airtime*1e3, float64(cycles)/float64(len(traffic)))
	fmt.Printf("MCU load: %.2f%% of the %.0f MHz clock -> %.1f uW while receiving, %.2f uW at 1%% duty (Table 2 MCU: %.1f uW)\n",
		100*budget.LoadFraction(cycles, span), budget.ClockHz/1e6,
		budget.AveragePowerUW(cycles, span),
		budget.DutyCycledPowerUW(cycles, span, 0.01), saiyan.MCUTable2UW)
	return nil
}

// parseDegradation parses a -degrade spec: exactly epoch:channel:dB, with
// no trailing fields (Sscanf would silently accept them).
func parseDegradation(spec string) (saiyan.GatewayDegradation, error) {
	var d saiyan.GatewayDegradation
	parts := strings.Split(strings.TrimSpace(spec), ":")
	if len(parts) != 3 {
		return d, fmt.Errorf("bad -degrade %q (want epoch:channel:dB)", spec)
	}
	var err error
	if d.Epoch, err = strconv.Atoi(parts[0]); err != nil {
		return d, fmt.Errorf("bad -degrade epoch %q: %w", parts[0], err)
	}
	if d.Channel, err = strconv.Atoi(parts[1]); err != nil {
		return d, fmt.Errorf("bad -degrade channel %q: %w", parts[1], err)
	}
	if d.AttenDB, err = strconv.ParseFloat(parts[2], 64); err != nil {
		return d, fmt.Errorf("bad -degrade dB %q: %w", parts[2], err)
	}
	return d, nil
}

// runServe runs the closed-loop gateway service for a number of epochs of
// tag churn. Without -listen it prints per-epoch metrics and the final
// session registry; with -listen it becomes a daemon serving the wire
// protocol (frames + metrics + control) until the epoch budget runs out or
// the process is interrupted.
func runServe(args []string, g *globals) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	channels := fs.Int("channels", 2, "concurrent ingest channels")
	epochs := fs.Int("epochs", 6, "epochs to serve (0 with -listen = until interrupted)")
	listen := fs.String("listen", "", "serve the wire protocol on this TCP address (e.g. 127.0.0.1:7316)")
	httpAddr := fs.String("http", "", "serve the telemetry plane (/metrics /healthz /snapshot /flight /health /timeseries /debug/pprof/) on this address ('' = off)")
	gap := fs.Duration("gap", 0, "pause between epochs when listening (paces the stream for subscribers)")
	captureDir := fs.String("capture-dir", "", "allow client capture requests, confined to this directory ('' = captures disabled)")
	fs.IntVar(&g.tags, "tags", g.tags, "initial tag population")
	fs.IntVar(&g.frames, "frames", g.frames, "frames per tag per epoch")
	fs.IntVar(&g.workers, "workers", g.workers, "demodulation workers per rate group (0 = one per CPU)")
	fs.Uint64Var(&g.seed, "seed", g.seed, "deployment PRNG seed")
	chunk := fs.Int("chunk", 256, "capture delivery chunk in sampler samples")
	join := fs.Int("join", 3, "a new tag joins every N epochs (0 = off)")
	leave := fs.Int("leave", 5, "the oldest tag leaves every N epochs (0 = off)")
	mobility := fs.Float64("mobility", 0.02, "per-epoch relative distance drift sigma (0 = static)")
	degrade := fs.String("degrade", "2:0:12", "mid-run SNR degradation as epoch:channel:dB ('' = none)")
	useFxp := fs.Bool("fxp", false, "decode with the fixed-point MCU datapath")
	adcBits := fs.Int("adcbits", 12, "ADC bit depth for -fxp (2-15)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if extra := fs.Args(); len(extra) > 0 {
		return fmt.Errorf("unexpected arguments %q", extra)
	}
	if *listen == "" && *epochs < 1 {
		return fmt.Errorf("-epochs %d < 1", *epochs)
	}
	if *listen != "" && *epochs < 0 {
		return fmt.Errorf("-epochs %d < 0", *epochs)
	}

	cfg := saiyan.DefaultGatewayConfig()
	cfg.Seed = g.seed
	cfg.Workers = g.workers
	if *useFxp {
		cfg.Demod.Datapath = saiyan.DatapathFixed
		cfg.Demod.ADCBits = *adcBits
	}
	cfg.Channels = *channels
	cfg.Tags = g.tags
	cfg.FramesPerTag = g.frames
	cfg.ChunkSamples = *chunk
	cfg.JoinEvery = *join
	cfg.LeaveEvery = *leave
	cfg.MobilitySigma = *mobility
	if *degrade != "" {
		d, err := parseDegradation(*degrade)
		if err != nil {
			return err
		}
		cfg.Degrade = []saiyan.GatewayDegradation{d}
	}

	// -http turns on the observability registry: the gateway's hot layers
	// record into it, the HTTP plane reads it, and (with -listen) the
	// server streams a per-epoch dump to metrics subscribers.
	var reg *saiyan.ObsRegistry
	if *httpAddr != "" {
		reg = saiyan.NewObsRegistry()
		cfg.Metrics = reg
	}

	// Any telemetry consumer (HTTP plane or wire server) also gets the
	// flight recorder: shard 0 for the gateway's control plane, one shard
	// per demodulation worker.
	var rec *saiyan.FlightRecorder
	if *httpAddr != "" || *listen != "" {
		workers := g.workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		rec = saiyan.NewFlightRecorder(saiyan.FlightOptions{Shards: workers + 1})
		cfg.Flight = rec
	}

	// ... and the link-health plane with the stock SLO rules: the
	// gateway samples its per-channel/per-rate series into the store at
	// every epoch boundary, /health and /timeseries read it back, and
	// (with -listen) health subscribers stream the per-epoch deltas.
	var hs *saiyan.HealthStore
	if *httpAddr != "" || *listen != "" {
		var err error
		hs, err = saiyan.NewHealthStore(saiyan.HealthOptions{Rules: saiyan.DefaultHealthRules()})
		if err != nil {
			return err
		}
		cfg.Health = hs
	}

	gw, err := saiyan.NewGateway(cfg)
	if err != nil {
		return err
	}
	if *listen != "" {
		return serveDaemon(gw, *listen, *epochs, *gap, *captureDir, reg, *httpAddr, rec, hs)
	}
	fmt.Printf("serve: %d channels, %d tags (join/%d leave/%d), %d epochs\n",
		*channels, g.tags, *join, *leave, *epochs)
	var snapCache atomic.Value // []byte: marshaled snapshot for /snapshot
	if reg != nil {
		ln, err := serveTelemetry(*httpAddr, reg, func() []byte {
			b, _ := snapCache.Load().([]byte)
			return b
		}, rec, hs)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Printf("telemetry on http://%s (/metrics /healthz /snapshot /flight /health /timeseries /debug/pprof/)\n", ln.Addr())
	}
	for i := 0; i < *epochs; i++ {
		rep, err := gw.RunEpoch(context.Background())
		if err != nil {
			return err
		}
		if reg != nil {
			// Snapshot between epochs is safe (RunEpoch is not running)
			// and keeps /snapshot fresh for the telemetry plane.
			if b, err := json.Marshal(gw.Snapshot()); err == nil {
				snapCache.Store(b)
			}
		}
		fxpNote := ""
		if *useFxp {
			fxpNote = fmt.Sprintf(" fxpCycles=%d", rep.FxpCycles)
		}
		fmt.Printf("epoch %2d: tags=%-2d frames=%d (+%d retx) fresh=%d cmds=%d/%d switches=%d hops=%d recals=%d atten=%v delivery=%.1f%%%s (%v)\n",
			rep.Epoch, rep.TagsActive, rep.FramesScheduled, rep.Retransmits, rep.FreshDelivered,
			rep.CmdsDelivered, rep.CmdsSent, rep.RateSwitches, rep.Hops, rep.Recalibrations,
			rep.ChannelAttenDB, 100*rep.DeliveryRatio, fxpNote, rep.Elapsed.Round(time.Millisecond))
	}
	snap := gw.Snapshot()
	fmt.Printf("\n%v\n", snap)
	if *useFxp {
		fmt.Printf("fxp datapath: %d MCU cycles across the run (price with energy.MCUBudget; Table 2 MCU: %.1f uW at 1%% duty)\n",
			snap.FxpCycles, saiyan.MCUTable2UW)
	}
	fmt.Printf("\nsessions:\n")
	for _, s := range snap.Sessions {
		state := "active"
		if !s.Active {
			state = "left"
		}
		fmt.Printf("  tag %-3d %-6s ch=%d K=%d delivered=%d/%d pending=%d windowPRR=%.2f snr=%.1fdB switches=%d hops=%d recals=%d\n",
			s.Tag, state, s.Channel, s.RateK, s.Delivered, s.Scheduled, s.Pending,
			s.WindowPRR, s.SNREstDB, s.RateSwitches, s.Hops, s.Recalibrations)
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `saiyan - reproduce the NSDI'22 Saiyan evaluation

usage:
  saiyan [flags] <subcommand> [subcommand flags]
  saiyan -pipeline [-workers N -tags M -frames F]

subcommands:
`)
	for _, sc := range subcommands {
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", sc.name, sc.summary)
	}
	fmt.Fprintf(os.Stderr, `
global flags:
  -quick      reduced Monte-Carlo fidelity
  -seed N     PRNG seed
  -pipeline   run the concurrent multi-tag demodulation pipeline
              (takes no subcommand; combining them is an error)
  -workers N  pipeline workers (0 = one per CPU)
  -tags M     simulated tag population
  -frames F   frames per tag
`)
}
