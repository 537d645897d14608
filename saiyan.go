package saiyan

import (
	"context"
	"io"
	"math/rand/v2"
	"net/http"

	"saiyan/internal/analog"
	"saiyan/internal/core"
	"saiyan/internal/dsp"
	"saiyan/internal/energy"
	"saiyan/internal/experiments"
	"saiyan/internal/flight"

	"saiyan/internal/gateway"
	"saiyan/internal/health"
	"saiyan/internal/lora"
	"saiyan/internal/obs"
	"saiyan/internal/pipeline"
	"saiyan/internal/radio"
	"saiyan/internal/server"
	"saiyan/internal/sim"
	"saiyan/internal/stream"
	"saiyan/internal/trace"
)

// Core demodulator types (the paper's contribution).
type (
	// Config assembles a Saiyan demodulator. Zero value: every field
	// except Params defaults (full chain at the paper's Section 5
	// settings); Params is required — NewDemodulator rejects a zero
	// Params with a descriptive error.
	Config = core.Config
	// Demodulator is the tag-side Saiyan receiver.
	Demodulator = core.Demodulator
)

// Configuration pattern. Every XConfig in this package follows one rule:
// the zero value is meaningful. Constructors normalize their config
// internally (the withDefaults idiom, private to each package) — a zero
// field means "use the documented default" — and a config missing a
// required field is rejected with an error naming what is missing, never
// silently misconfigured. The Default*Config helpers below bundle the
// paper's evaluation settings for the configs whose required fields have a
// canonical choice; they are conveniences over that pattern, not a
// requirement: NewPipeline(PipelineConfig{Demod: DefaultConfig()}) builds
// the same pipeline as NewPipeline(DefaultPipelineConfig()).
// saiyan_api_test.go holds the contract: every exported constructor either
// accepts its zero-value config or returns a descriptive error.

// DefaultConfig returns the paper's Section 5 evaluation setting: SF 7,
// BW 500 kHz, CR 1, full demodulation chain, 3.2x sampling.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultPipelineConfig returns a pipeline over the paper's default
// demodulator with one worker per CPU.
func DefaultPipelineConfig() PipelineConfig { return pipeline.DefaultConfig() }

// DefaultGatewayConfig returns a 2-channel, 8-tag closed-loop gateway over
// the paper's default demodulator and link budget.
func DefaultGatewayConfig() GatewayConfig { return gateway.DefaultConfig() }

// DefaultExperimentOptions returns full-fidelity experiment settings.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// Demodulator modes.
const (
	ModeVanilla   = core.ModeVanilla
	ModeFreqShift = core.ModeFreqShift
	ModeFull      = core.ModeFull
)

// Fixed-point MCU datapath types (internal/fxp): the integer decode
// subsystem modeling the prototype's digital logic — ADC quantization at a
// configurable bit depth, Q1.15 saturating arithmetic, and per-operation
// cycle accounting priced through the energy ledger.
type (
	// Datapath selects the arithmetic of the payload decode stage
	// (Config.Datapath): the float64 reference or the Q1.15 integer path.
	Datapath = core.Datapath
	// MCUBudget converts a cycle ledger into microwatts for comparison
	// against the Table 2 MCU entry.
	MCUBudget = energy.MCUBudget
)

// Datapath selections for Config.Datapath.
const (
	DatapathFloat = core.DatapathFloat
	DatapathFixed = core.DatapathFixed
)

// DefaultMCUBudget returns the Apollo2 at 48 MHz with the active draw
// implied by Table 2 (19.6 uW at 1 % duty cycling).
func DefaultMCUBudget() MCUBudget { return energy.DefaultMCUBudget() }

// MCUTable2UW is the Table 2 MCU ledger entry in microwatts — the bar a
// simulated cycle budget is compared against.
const MCUTable2UW = energy.MCUApollo2UW

// LoRa PHY types.
type (
	// Params is one LoRa downlink configuration (SF, BW, bits/chirp K).
	Params = lora.Params
	// Frame is a downlink packet: preamble, sync, payload symbols.
	Frame = lora.Frame
)

// Channel and link types.
type (
	// LinkBudget is the 433 MHz link budget (path loss, walls, noise).
	LinkBudget = radio.LinkBudget
	// SAWFilter is the frequency-amplitude converter model (Figure 5).
	SAWFilter = analog.SAWFilter
)

// Energy accounting types.
type (
	// EnergyLedger is a per-component power/cost table (Table 2).
	EnergyLedger = energy.Ledger
)

// Concurrent demodulation pipeline types.
type (
	// Pipeline fans frames from many tags out to a pool of demodulator
	// workers; build with NewPipeline, feed with Submit, finish with Drain.
	Pipeline = pipeline.Pipeline
	// PipelineConfig tunes the worker pool, queue depths, seed, and the
	// per-distance calibration quantum. Zero value: every field except
	// Demod defaults (one worker per CPU); Demod is required.
	PipelineConfig = pipeline.Config
	// PipelineJob is one downlink frame awaiting demodulation.
	PipelineJob = pipeline.Job
	// PipelineStats is the aggregate throughput/error snapshot.
	PipelineStats = pipeline.Stats
	// TagSet generates deterministic multi-tag downlink traffic.
	TagSet = sim.TagSet
)

// NewPipeline starts a concurrent demodulation pipeline. For a fixed
// cfg.Seed the decoded symbol stream is identical regardless of worker
// count.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) { return pipeline.New(cfg) }

// NewTagSet places n simulated tags geometrically between minM and maxM
// from the access point and derives their RSS from the link budget; frames
// and payloads are deterministic in (seed, tag, sequence).
func NewTagSet(p Params, budget LinkBudget, n int, minM, maxM float64, seed uint64) (*TagSet, error) {
	return sim.NewTagSet(p, budget, n, minM, maxM, seed)
}

// Trace capture & replay. A trace is a persistent recording of a
// demodulation workload — configuration, per-frame symbols, noise seeds,
// and the demodulator's decisions — that can be shipped and re-demodulated
// later, bit-exactly. See internal/trace for the format specification.
type (
	// PipelineSource supplies frames to Pipeline.Run, one at a time.
	PipelineSource = pipeline.Source
)

// NewTagTrafficSource schedules framesPerTag live frames from every tag of
// ts, round-robin, for Pipeline.Run or RecordTrace.
func NewTagTrafficSource(ts *TagSet, framesPerTag int) (PipelineSource, error) {
	return pipeline.NewTagSetSource(ts, framesPerTag)
}

// RecordTrace runs src through a pipeline configured by cfg while
// recording every demodulated frame — transmitted symbols, RSS, noise
// seed, and the decoded decisions — to path (gzip when it ends in ".gz").
// withSamples additionally captures the rendered frequency trajectory and
// envelope of every frame (large). It returns the run's aggregate Stats.
// Cancelling ctx stops the recording between source pulls and leaves the
// trace deliberately truncated; a nil ctx behaves like
// context.Background().
func RecordTrace(ctx context.Context, path string, cfg PipelineConfig, src PipelineSource, withSamples bool) (PipelineStats, error) {
	p, err := pipeline.New(cfg)
	if err != nil {
		return PipelineStats{}, err
	}
	w, err := trace.Create(path, p.TraceHeader())
	if err != nil {
		p.Drain()
		return PipelineStats{}, err
	}
	if err := p.Record(w, withSamples); err != nil {
		p.Drain()
		w.Abort()
		return PipelineStats{}, err
	}
	st, err := p.Run(ctx, src)
	if err != nil {
		// Leave the trace deliberately truncated (no trailer): the frames
		// captured before the failure stay readable, but replaying the file
		// reports ErrServerTruncated instead of passing it for a complete
		// capture.
		w.Abort()
		return st, err
	}
	return st, w.Close()
}

// ReplayTrace re-demodulates a recorded trace through a fresh pipeline
// built from the trace's own header. workers <= 0 uses one per CPU; the
// decoded stream is identical at any worker count.
func ReplayTrace(path string, workers int) (PipelineStats, error) {
	r, err := trace.Open(path)
	if err != nil {
		return PipelineStats{}, err
	}
	defer r.Close()
	return pipeline.Replay(r, workers)
}

// VerifyTrace replays a recorded trace and compares every decode against
// the decisions stored in it, returning the replay Stats and the number of
// frames that diverged (0 for a healthy trace).
func VerifyTrace(path string, workers int) (PipelineStats, int, error) {
	r, err := trace.Open(path)
	if err != nil {
		return PipelineStats{}, 0, err
	}
	defer r.Close()
	return pipeline.VerifyReplay(r, workers)
}

// Continuous-stream receiver types. A stream workload starts from raw
// envelope samples — a continuous multi-tag capture with idle gaps,
// partial frames, and chunked delivery — and must *find* packets before
// demodulating them (the paper's Section 3.2 packet detection), unlike the
// per-frame pipeline whose jobs arrive with oracle boundaries.
type (
	// TimelineConfig shapes a continuous capture: frames per tag, idle gap
	// bounds, lead-in, optional collisions.
	TimelineConfig = sim.TimelineConfig
	// TagStream is a rendered continuous capture: envelope stream(s) plus
	// the transmission schedule that produced them.
	TagStream = sim.Stream
	// StreamFrame is one scheduled transmission of a TagStream.
	//
	//lint:allow unused the repository benchmark's tests name it to compare capture schedules
	StreamFrame = sim.StreamFrame
	// StreamConfig assembles the segmenter that hunts frames in a capture.
	// Zero value: every field except Demod defaults; Demod is required.
	StreamConfig = stream.Config
	// StreamSource adapts a chunked capture to Pipeline.Run: segmentation
	// on the submission goroutine, decoding on the worker pool.
	StreamSource = stream.Source
	// StreamStats is the outcome of a continuous-capture run: pipeline
	// aggregates plus segmentation accounting and frame recovery.
	StreamStats = stream.Stats
)

// RenderTimeline schedules framesPerTag frames from every tag of ts along
// one continuous timeline (idle gaps, optional collisions per tl) and
// renders the superposed multi-tag envelope through the demodulator chain
// of cfg in a single pass. See TagSet.RenderTimeline for full control.
func RenderTimeline(ts *TagSet, cfg Config, tl TimelineConfig) (*TagStream, error) {
	return ts.RenderTimeline(cfg, tl)
}

// NewStreamSource builds a pipeline source over a rendered capture,
// delivered in chunkSamples-sized chunks (0 = one chunk): each Next call
// advances segmentation until a frame window pops out and submits it as a
// stream-decode job, so segmentation overlaps demodulation. Extracted
// windows are matched back to the capture's schedule for scoring.
func NewStreamSource(cfg StreamConfig, capture *TagStream, chunkSamples int) (*StreamSource, error) {
	return stream.NewSource(cfg, capture, chunkSamples)
}

// DemodulateStream runs a rendered capture end to end — segmentation,
// window decoding on the worker pool, schedule-matched scoring — and
// returns the stream stats (including the frame Recovery ratio). The
// outcome is identical for any worker count and any chunk size.
// Cancelling ctx stops the run between window submissions; a nil ctx
// behaves like context.Background().
func DemodulateStream(ctx context.Context, pcfg PipelineConfig, scfg StreamConfig, capture *TagStream, chunkSamples int) (StreamStats, error) {
	return stream.Demodulate(ctx, pcfg, scfg, capture, chunkSamples)
}

// Closed-loop gateway service types. A Gateway is the end state the paper
// argues for: a long-running access point that ingests multiple concurrent
// stream channels, tracks every tag in a session registry (frame dedup,
// sliding-window PRR/SNR/offset), and closes the feedback loop — rate
// adaptation, channel hopping, retransmission, re-calibration — by
// synthesizing downlink Commands and applying them back to the simulated
// deployment.
type (
	// Gateway is a running closed-loop service; advance with RunEpoch,
	// observe with Snapshot.
	Gateway = gateway.Gateway
	// GatewayConfig assembles a gateway: channels, tag population, churn,
	// degradations, adaptation thresholds. Zero value: every knob
	// defaults (2 channels, 8 tags, 20..80 m, BER <= 1e-3 adaptation);
	// Demod and Budget are required.
	GatewayConfig = gateway.Config
	// GatewayStats is the gateway's deterministic metrics snapshot —
	// byte-identical at any worker count for a fixed seed.
	GatewayStats = gateway.Snapshot
	// GatewayEpochReport summarizes one served epoch.
	GatewayEpochReport = gateway.EpochReport
	// GatewayFrameEvent is one per-frame decode outcome, emitted in
	// deterministic schedule order through Gateway.SetFrameHook.
	GatewayFrameEvent = gateway.FrameEvent
	// GatewayDegradation schedules a mid-run channel-quality change.
	GatewayDegradation = gateway.Degradation
)

// NewGateway starts a closed-loop gateway service over a simulated tag
// deployment. For a fixed cfg.Seed the full metrics snapshot is identical
// regardless of cfg.Workers.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return gateway.New(cfg) }

// Protocol serving types. A Server exposes a running Gateway over TCP: a
// versioned length-prefixed binary protocol (CRC-framed like traces)
// streaming per-frame decode events and per-epoch metrics to any number of
// concurrent subscribers, with an operator control plane — pause/resume,
// rate override, channel-plan swap, frame-capture start/stop — on the same
// wire. Slow consumers never stall the epoch loop: each client has bounded
// send queues and overflow is dropped and counted (reported back in that
// client's ServerClientStats). See internal/server for the wire format.
type (
	// Server runs a gateway epoch loop and serves its streams over TCP;
	// build with NewServer, run with Serve, stop via context cancel.
	Server = server.Server
	// ServerConfig assembles a protocol server. Zero value: every field
	// except Gateway defaults (loopback listen, bounded queues, 5 s write
	// deadline, client capture requests disabled — set CaptureDir to
	// grant them a confined directory); Gateway is required.
	ServerConfig = server.Config
	// ServerClient is a protocol client: a subscriber and control handle
	// for one server connection; build with DialServer.
	ServerClient = server.Client
	// ServerClientStats is the per-subscriber delivery/drop accounting the
	// server reports after every epoch.
	ServerClientStats = server.ClientStats
)

// Server event kinds: the Kind of each event ServerClient.Next returns.
const (
	ServerEventFrame    = server.EventFrame
	ServerEventEpoch    = server.EventEpoch
	ServerEventSnapshot = server.EventSnapshot
	ServerEventStats    = server.EventStats
	ServerEventError    = server.EventError
	ServerEventBye      = server.EventBye
	// ServerEventObs is the per-epoch observability registry dump, sent
	// only by servers running with ServerConfig.Metrics set.
	ServerEventObs = server.EventObs
	// ServerEventFlight is one anomaly-triggered flight-recorder dump,
	// sent only by servers running with ServerConfig.Flight set.
	ServerEventFlight = server.EventFlight
	// ServerEventHealth is the link-health plane's per-epoch delta, sent
	// only by servers running with ServerConfig.Health set.
	ServerEventHealth = server.EventHealth
)

// ServerProtocolVersion is the wire protocol version this build speaks.
const ServerProtocolVersion = server.Version

// ErrServerTruncated marks a wire stream or capture file cut
// mid-message; test with errors.Is. Traces share the wire's framing
// codec, so a trace cut short reports the same value.
//
//lint:allow unused ReadFrameCapture documents returning it for callers to match with errors.Is
var ErrServerTruncated = server.ErrTruncated

// NewServer validates cfg and binds its listen socket (so Server.Addr is
// routable immediately); Serve then runs the epoch loop until its context
// ends or the configured epoch count is served.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// DialServer connects a client to a serving gateway: it exchanges protocol
// preludes, reads the hello, and returns the subscriber/control handle.
func DialServer(addr string) (*ServerClient, error) { return server.Dial(addr) }

// ReadFrameCapture loads the frame events recorded server-side by the
// capture control (ServerClient.StartCapture, confined to the server's
// ServerConfig.CaptureDir). Events decoded before a truncation are
// returned alongside ErrServerTruncated.
func ReadFrameCapture(path string) ([]GatewayFrameEvent, error) { return server.ReadCapture(path) }

// Observability types (internal/obs). An ObsRegistry is the gateway
// stack's dependency-free metrics substrate: atomic counters, gauges, and
// sharded log-bucket histograms, registered by Prometheus-style name.
// Hand one registry to PipelineConfig.Metrics, StreamConfig.Metrics,
// GatewayConfig.Metrics, and ServerConfig.Metrics (the gateway forwards
// to its pipelines and segmenters automatically) and every hot layer
// reports into it. Instrumentation is write-only and never feeds control
// decisions, so deterministic outputs stay byte-identical with metrics on
// or off.
type (
	// ObsRegistry is a named-metric registry; build with NewObsRegistry.
	// A nil registry is valid everywhere and disables instrumentation.
	ObsRegistry = obs.Registry
	// MetricSnapshot is one series of a registry dump (ObsRegistry.Snapshot,
	// the obs wire message, and the /snapshot endpoint's sibling).
	MetricSnapshot = obs.MetricSnapshot
	// ObsHandlerConfig assembles the HTTP telemetry plane.
	ObsHandlerConfig = obs.HandlerConfig
)

// NewObsRegistry builds an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsHandler builds the HTTP telemetry mux: /metrics (Prometheus text
// exposition 0.0.4), /healthz, /snapshot (cached JSON), /flight (recent
// anomaly dumps, or one trace via ?trace=), and /debug/pprof/*. This is
// what `saiyan serve -http` mounts.
func NewObsHandler(cfg ObsHandlerConfig) http.Handler { return obs.NewHandler(cfg) }

// Flight recorder types (internal/flight): the per-frame black box. Hot
// layers append fixed-size decision spans into per-worker ring buffers;
// anomalies (decode failures, dedup misses, retransmissions, hops, PRR
// collapses, operator actions) snapshot the rings into bounded dumps.
// Trace IDs derive purely from (epoch, channel, tag, seq), so dumps are
// byte-identical at any worker count. Hand one recorder to
// GatewayConfig.Flight and ServerConfig.Flight; read it back through
// the /flight telemetry endpoint, the flight wire message, or `saiyan
// watch -flight`. A nil *FlightRecorder is valid everywhere and
// disables recording, like a nil ObsRegistry.
type (
	// FlightRecorder is the sharded span ring set; build with
	// NewFlightRecorder.
	FlightRecorder = flight.Recorder
	// FlightOptions sets a recorder's shard count; the zero value picks
	// 16 shards. Every shard rings 4096 spans, and the recorder keeps the
	// 64 most recent dumps of at most 512 spans each.
	FlightOptions = flight.Options
	// FlightDump is one anomaly-triggered black-box dump.
	FlightDump = flight.Dump
)

// NewFlightRecorder builds a flight recorder. The gateway needs at least
// Workers+1 shards: shard 0 for its control-plane goroutine, one per
// pipeline worker above that.
func NewFlightRecorder(opts FlightOptions) *FlightRecorder { return flight.New(opts) }

// FormatFlightTrace renders a trace ID the way /flight and the watch
// transcript print them (16 hex digits).
func FormatFlightTrace(trace uint64) string { return flight.FormatTrace(trace) }

// Link-health plane types (internal/health): deterministic time-series
// rollups, a declarative SLO rules engine, and an alert journal. The
// gateway samples per-channel PRR/SNR/occupancy, per-rate frame counts,
// and its epoch-report scalars into a HealthStore at every epoch
// boundary and evaluates the rules there, so rollups, alert IDs, and
// wire deltas are byte-identical at any worker count, with metrics on
// or off. Hand one store to GatewayConfig.Health and ServerConfig.Health;
// read it back through the /health and /timeseries telemetry endpoints,
// the health wire message, `saiyan watch -health`, or `saiyan health`.
// A nil *HealthStore is valid everywhere and disables the plane, like a
// nil ObsRegistry.
type (
	// HealthStore holds the rollup rings, rule state, and alert journal;
	// build with NewHealthStore.
	HealthStore = health.Store
	// HealthOptions declares a store's rules; the zero value is a store
	// with no rules. Every store keeps 512 raw bins per tier, fan-in 8,
	// and 3 tiers.
	HealthOptions = health.Options
	// HealthRule is one declarative SLO rule.
	HealthRule = health.Rule
	// HealthAlert is one journal entry: a firing or clearing transition
	// with its deterministic ID and exemplar trace IDs.
	HealthAlert = health.Alert
	// HealthDelta is one epoch's raw points and alert transitions — the
	// health wire message payload.
	HealthDelta = health.Delta
)

// Health alert states (HealthAlert.State).
const (
	HealthStateFiring = health.StateFiring
)

// NewHealthStore validates opts (including every rule) and builds a
// link-health store.
func NewHealthStore(opts HealthOptions) (*HealthStore, error) { return health.New(opts) }

// DefaultHealthRules returns the stock SLO rule set: per-channel PRR
// degradation, SNR floor, delivery-ratio burn rate, and a retransmission
// storm threshold.
func DefaultHealthRules() []HealthRule { return health.DefaultRules() }

// Experiment harness types.
type (
	// Experiment regenerates one of the paper's tables or figures.
	Experiment = experiments.Experiment
	// ExperimentOptions tunes experiment fidelity.
	ExperimentOptions = experiments.Options
)

// NewDemodulator builds a Saiyan demodulator. Call Calibrate with the
// expected feedback RSS before demodulating, exactly as the prototype
// loads its per-distance threshold table.
func NewDemodulator(cfg Config) (*Demodulator, error) { return core.New(cfg) }

// DefaultParams returns SF 7 / BW 500 kHz / CR 1 at 433.5 MHz.
func DefaultParams() Params { return lora.DefaultParams() }

// NewFrame builds a downlink frame from payload symbols in [0, 2^K).
func NewFrame(p Params, payload []int) (*Frame, error) { return lora.NewFrame(p, payload) }

// DefaultLinkBudget returns the paper's field setup: 20 dBm, 3 dBi
// antennas, 433.5 MHz, outdoor propagation.
func DefaultLinkBudget() LinkBudget { return radio.DefaultLinkBudget() }

// PaperSAW returns the Figure 5 SAW filter model.
func PaperSAW() *SAWFilter { return analog.PaperSAW() }

// NewRand returns the deterministic PRNG used across the simulator.
func NewRand(seed1, seed2 uint64) *rand.Rand { return dsp.NewRand(seed1, seed2) }

// ASICLedger returns the Section 4.3 ASIC power simulation (93.2 uW).
func ASICLedger() EnergyLedger { return energy.ASICLedger() }

// Experiments lists every reproducible table and figure.
func Experiments() []Experiment { return experiments.List() }

// RunExperiment runs one experiment by id ("fig16", "tab1", ...) and writes
// its table to w.
func RunExperiment(id string, opts ExperimentOptions, w io.Writer) error {
	e, err := experiments.Get(id)
	if err != nil {
		return err
	}
	tab, err := e.Run(opts)
	if err != nil {
		return err
	}
	return tab.Render(w)
}
