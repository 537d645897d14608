// Package gateway closes the Saiyan feedback loop at deployment scale: a
// long-running access-point service that ingests multiple concurrent
// stream channels, maintains a per-tag session registry, and runs a
// control loop that adapts each link — rate selection through
// mac.RateAdapter, channel hopping away from degraded bands, on-demand
// retransmission of missing frames, and threshold re-calibration — by
// synthesizing real downlink mac.Commands and applying their effects back
// to the simulated tag deployment.
//
// Time advances in epochs. Each epoch the gateway (1) applies deployment
// churn — joins, departures, mobility — and any scheduled channel
// degradations; (2) renders every channel's tag population into a
// continuous multi-tag capture (grouped by the tags' current downlink
// rate, since the rate sets the PHY alphabet) and demodulates all captures
// through one shared worker pool per rate group, segmenting that rate's
// channels one after another straight into the pool; (3) folds the decode
// results into the session registry — frame dedup by per-tag payload
// sequence number, sliding-window PRR/SNR/offset accounting; and (4) runs
// the control loop, whose commands take effect on the next epoch's
// schedule.
//
// Everything is deterministic in Config.Seed: results are folded in
// schedule order (not worker completion order), command RNG draws are
// keyed by epoch and consumed in ascending-tag order, and Snapshot carries
// no wall-clock state — so the full metrics snapshot is byte-identical at
// any worker count.
package gateway

import (
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"time"

	"saiyan/internal/core"
	"saiyan/internal/dsp"
	"saiyan/internal/flight"
	"saiyan/internal/health"
	"saiyan/internal/obs"
	"saiyan/internal/radio"
	"saiyan/internal/sim"
)

// Derived-RNG salts (distinct from the sim package's payload/schedule/noise
// streams by construction: they go through dsp.NewRand's own mixing with
// these large odd constants).
const (
	churnSalt   = 0x636875726e5f5347 // "churn_SG"
	commandSalt = 0x636d645f53474157 // "cmd_SGAW"
)

// Degradation schedules a persistent mid-run channel-quality change: from
// epoch Epoch onward, every frame on channel Channel is received AttenDB
// weaker (a jammer parking on the band, a new obstruction). Negative
// AttenDB models recovery.
type Degradation struct {
	Epoch   int
	Channel int
	AttenDB float64
}

// Config assembles a gateway service.
type Config struct {
	// Demod is the demodulator chain every ingest channel runs. The
	// configured Params.K is only the PHY baseline; each rate group renders
	// and decodes at its tags' commanded K.
	Demod core.Config

	// Budget is the link budget tags are placed against.
	Budget radio.LinkBudget

	// Channels is the number of concurrent ingest channels. Default 2.
	Channels int

	// Tags is the initial tag population, placed geometrically between MinM
	// and MaxM (defaults 8 tags, 20..80 m).
	Tags       int
	MinM, MaxM float64

	// FramesPerTag is each tag's regular schedule per epoch. Default 2.
	FramesPerTag int

	// ChunkSamples is the capture delivery granularity fed to the stream
	// segmenter. Default 256.
	ChunkSamples int

	// Workers sizes each rate group's demodulation worker pool. Default:
	// one per CPU.
	Workers int

	// Seed drives every derived RNG: placement, payloads, schedules,
	// churn, and downlink command delivery.
	Seed uint64

	// JoinEvery / LeaveEvery schedule deployment churn: every JoinEvery
	// epochs a new tag joins; every LeaveEvery epochs the oldest tag
	// leaves. 0 disables.
	JoinEvery, LeaveEvery int

	// MobilitySigma is the per-epoch log-normal relative step of every
	// tag's distance (0.05 = ~5% drift per epoch). 0 keeps tags static.
	MobilitySigma float64

	// Degrade schedules channel-quality changes.
	Degrade []Degradation

	// Metrics, when non-nil, receives the gateway's observability series —
	// per-epoch stage timings, downlink command outcomes by opcode,
	// retransmit budget spend, session registry size — and is forwarded to
	// every rate group's pipeline and segmenter. Instrumentation is
	// write-only and never feeds a control decision, so Snapshot stays
	// byte-identical at any worker count with metrics on or off (pinned by
	// TestSnapshotDeterminismWithMetrics).
	Metrics *obs.Registry

	// Flight, when non-nil, is the per-frame flight recorder: hot layers
	// append fixed-size decision spans (segment, decode, fold, control)
	// and anomalies — decode failures, dedup misses, retransmissions,
	// hops, PRR collapses, operator actions — snapshot the rings into
	// black-box dumps. Write-only like Metrics: no control decision ever
	// reads the recorder, so Snapshot and every dump stay byte-identical
	// at any worker count (pinned by TestFlightDumpDeterminism). The
	// recorder needs at least Workers+1 shards: shard 0 is the gateway's
	// control-plane goroutine, shards 1..Workers belong to the pipeline.
	Flight *flight.Recorder

	// Health, when non-nil, is the link-health plane: at the end of every
	// epoch the gateway appends its longitudinal series — per-channel
	// PRR/SNR/occupancy, per-rate frame counts, delivery ratio, fxp
	// cycles — and seals the epoch, which evaluates the store's SLO rules
	// and journals alert transitions. Write-only like Metrics and Flight:
	// no control decision ever reads the store, appends happen in
	// schedule order on the epoch goroutine, and the series values derive
	// only from deterministic state — so rollups, journals, and wire
	// deltas are byte-identical at any worker count with metrics on or
	// off (pinned by TestHealthDeterminism). The wire server may add its
	// own telemetry-grade series (fanout drops) on top; those mirror
	// client behaviour and are excluded from the determinism bar the way
	// EpochReport.Elapsed is.
	Health *health.Store

	// openLoop, when set, makes the control loop return at once: no
	// command is ever synthesized. Test hook: it builds the open-loop
	// reference the closed loop's recovery is measured against.
	openLoop bool
}

// DefaultConfig returns a 2-channel, 8-tag gateway over the paper's
// default demodulator.
func DefaultConfig() Config {
	return Config{Demod: core.DefaultConfig(), Budget: radio.DefaultLinkBudget()}
}

// withDefaults fills zero fields and validates.
func (c Config) withDefaults() (Config, error) {
	if c.Channels == 0 {
		c.Channels = 2
	}
	if c.Channels < 1 {
		return c, fmt.Errorf("gateway: %d channels < 1", c.Channels)
	}
	// A hop command carries the target channel in its 8-bit argument, so
	// channel indices must stay addressable.
	if c.Channels > 256 {
		return c, fmt.Errorf("gateway: %d channels exceed the command argument space (max 256)", c.Channels)
	}
	if c.Tags == 0 {
		c.Tags = 8
	}
	if c.Tags < 1 {
		return c, fmt.Errorf("gateway: %d tags < 1", c.Tags)
	}
	if c.MinM == 0 {
		c.MinM = 20
	}
	if c.MaxM == 0 {
		c.MaxM = 80
	}
	if c.MinM <= 0 || c.MaxM < c.MinM {
		return c, fmt.Errorf("gateway: distance range [%g, %g] m invalid", c.MinM, c.MaxM)
	}
	if c.FramesPerTag == 0 {
		c.FramesPerTag = 2
	}
	if c.FramesPerTag < 1 {
		return c, fmt.Errorf("gateway: %d frames per tag < 1", c.FramesPerTag)
	}
	if c.ChunkSamples == 0 {
		c.ChunkSamples = 256
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		return c, fmt.Errorf("gateway: %d workers < 1", c.Workers)
	}
	for _, d := range c.Degrade {
		if d.Channel < 0 || d.Channel >= c.Channels {
			return c, fmt.Errorf("gateway: degradation targets channel %d of %d", d.Channel, c.Channels)
		}
		if d.Epoch < 0 {
			return c, fmt.Errorf("gateway: degradation at negative epoch %d", d.Epoch)
		}
	}
	return c, nil
}

// tagState is one deployed tag in the gateway's model of the field.
type tagState struct {
	id        int
	distanceM float64
	channel   int
	rateK     int
	// retxNext holds the frame sequence numbers this tag was commanded to
	// retransmit on the next epoch.
	retxNext []uint64
}

// Gateway is a running closed-loop service. Construct with New, advance
// with RunEpoch (or Run), observe with Snapshot.
type Gateway struct {
	cfg          Config
	noiseFloorDB float64

	epoch    int
	nextID   int
	tags     map[int]*tagState
	sessions map[int]*session
	atten    []float64 // per-channel attenuation in dB

	// Per-channel noise accounting from the most recent epoch's receivers
	// (stream.Receiver.NoiseStats: the hunt calibration's noise).
	chanNoise []noiseStats

	agg aggregate

	// err latches the first epoch failure: churn and command effects are
	// applied incrementally, so re-driving a half-served epoch would
	// corrupt the deployment model (double-applied degradations, repeated
	// joins). A failed gateway refuses further epochs instead.
	err error

	// frameHook, when set, receives every scheduled transmission's decode
	// outcome during the epoch's result fold — in schedule order, on the
	// RunEpoch goroutine. See SetFrameHook.
	frameHook func(FrameEvent)

	// met is the registered observability series; the zero value (every
	// handle nil, on false) when Config.Metrics is unset.
	met gatewayObs

	// health is the registered link-health series; nil (all methods
	// no-op) when Config.Health is unset.
	health *gatewayHealth
}

// FrameEvent is the per-frame slice of one epoch: the decode outcome of a
// single scheduled transmission, emitted in schedule order (never worker
// completion order) so the event stream is deterministic for a fixed seed.
type FrameEvent struct {
	Epoch   int    `json:"epoch"`
	Channel int    `json:"channel"`
	Tag     int    `json:"tag"`
	RateK   int    `json:"rate_k"`
	Seq     uint64 `json:"seq"` // per-tag payload sequence number

	Retransmit bool `json:"retransmit,omitempty"` // scheduled by the retransmission loop
	Detected   bool `json:"detected,omitempty"`   // a matched window found the preamble
	Correct    bool `json:"correct,omitempty"`    // decoded with zero symbol errors
	Fresh      bool `json:"fresh,omitempty"`      // first error-free delivery of this Seq

	// SymbolErrs counts wrongly decoded symbols; -1 when no matched window
	// produced a scored decode.
	SymbolErrs int `json:"symbol_errs"`
	// OffsetSamples is the detection offset of the matched window in
	// sampler samples (0 when the frame was never matched).
	OffsetSamples int64 `json:"offset_samples"`
	// RSSDBm is the frame's received signal strength after channel
	// attenuation.
	RSSDBm float64 `json:"rss_dbm"`
}

// SetFrameHook installs fn as the per-frame event sink: every scheduled
// transmission's outcome is delivered during the epoch fold, in schedule
// order, on the goroutine driving RunEpoch. The hook must be fast or hand
// off — it runs inside the epoch loop. Install it before serving epochs;
// installing or swapping it concurrently with RunEpoch is a race. A nil fn
// removes the hook.
func (g *Gateway) SetFrameHook(fn func(FrameEvent)) { g.frameHook = fn }

type noiseStats struct{ baseline, sigma float64 }

// aggregate is the deterministic gateway-wide counter set.
type aggregate struct {
	framesScheduled  uint64
	framesDelivered  uint64
	framesDuplicate  uint64
	retxScheduled    uint64
	retxRecovered    uint64
	windowsEmitted   uint64
	windowsUnmatched uint64
	symbolsChecked   uint64
	symbolErrs       uint64
	cmdsSent         uint64
	cmdsDelivered    uint64
	cmdsMissed       uint64
	rateSwitches     uint64
	hops             uint64
	recals           uint64
	fxpCycles        uint64
}

// New validates cfg and places the initial deployment.
func New(cfg Config) (*Gateway, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// Validate the demodulator once at every rate the adapter may command.
	for k := adapter.MinK; k <= adapter.MaxK; k++ {
		if _, err := cfg.demod(k).Defaulted(); err != nil {
			return nil, fmt.Errorf("gateway: demodulator invalid at K=%d: %w", k, err)
		}
	}
	g := &Gateway{
		cfg:          cfg,
		noiseFloorDB: cfg.Budget.NoiseFloorDBm(cfg.Demod.Params.BandwidthHz),
		tags:         make(map[int]*tagState),
		sessions:     make(map[int]*session),
		atten:        make([]float64, cfg.Channels),
		chanNoise:    make([]noiseStats, cfg.Channels),
		met:          newGatewayObs(cfg.Metrics),
		health:       newGatewayHealth(cfg.Health, cfg.Channels, adapter.MinK, adapter.MaxK),
	}
	// Initial placement is sim.NewTagSet's geometric spacing (one source of
	// truth); channels are dealt round-robin.
	placement, err := sim.NewTagSet(cfg.Demod.Params, cfg.Budget, cfg.Tags, cfg.MinM, cfg.MaxM, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for i, t := range placement.Tags {
		g.admitTag(t.DistanceM, i%cfg.Channels)
	}
	return g, nil
}

// admitTag registers a new tag and opens its session.
func (g *Gateway) admitTag(distanceM float64, channel int) *tagState {
	id := g.nextID
	g.nextID++
	t := &tagState{id: id, distanceM: distanceM, channel: channel, rateK: adapter.MinK}
	g.tags[id] = t
	g.sessions[id] = newSession(id, statsWindow, g.snrAt(t))
	return t
}

// snrAt is the link-budget SNR of a tag on its current channel.
func (g *Gateway) snrAt(t *tagState) float64 {
	return g.cfg.Budget.RSSDBm(t.distanceM) - g.atten[t.channel] - g.noiseFloorDB
}

// rssAt is the received signal strength of a tag on its current channel.
func (g *Gateway) rssAt(t *tagState) float64 {
	return g.cfg.Budget.RSSDBm(t.distanceM) - g.atten[t.channel]
}

// sortedIDs returns the tag IDs keying m in ascending order, the
// package's deterministic iteration order.
func sortedIDs[V any](m map[int]V) []int {
	ids := slices.AppendSeq(make([]int, 0, len(m)), maps.Keys(m))
	slices.Sort(ids)
	return ids
}

// channelLoad counts the deployed tags on each ingest channel.
func (g *Gateway) channelLoad() []int {
	load := make([]int, g.cfg.Channels)
	for _, t := range g.tags {
		load[t.channel]++
	}
	return load
}

// argmin returns the index of the smallest of xs, ties to the lowest.
func argmin[T int | float64](xs []T) int {
	best := 0
	for i := range xs {
		if xs[i] < xs[best] {
			best = i
		}
	}
	return best
}

// applyChurn advances the deployment model one epoch: scheduled channel
// degradations, mobility drift, a join, and a departure — all drawn from
// the epoch-keyed churn RNG in deterministic order.
func (g *Gateway) applyChurn(epoch int) {
	for _, d := range g.cfg.Degrade {
		if d.Epoch == epoch {
			g.atten[d.Channel] += d.AttenDB
		}
	}
	rng := dsp.NewRand(g.cfg.Seed^churnSalt, uint64(epoch))
	if g.cfg.MobilitySigma > 0 && epoch > 0 {
		for _, id := range sortedIDs(g.tags) {
			t := g.tags[id]
			t.distanceM *= math.Exp(g.cfg.MobilitySigma * rng.NormFloat64())
			if t.distanceM < 1 {
				t.distanceM = 1
			}
		}
	}
	if g.cfg.JoinEvery > 0 && epoch > 0 && epoch%g.cfg.JoinEvery == 0 {
		frac := rng.Float64()
		d := g.cfg.MinM * math.Pow(g.cfg.MaxM/g.cfg.MinM, frac)
		g.admitTag(d, argmin(g.channelLoad()))
	}
	if g.cfg.LeaveEvery > 0 && epoch > 0 && epoch%g.cfg.LeaveEvery == 0 && len(g.tags) > 1 {
		oldest := sortedIDs(g.tags)[0]
		t := g.tags[oldest]
		s := g.sessions[oldest]
		s.active = false
		s.lastChannel, s.lastRateK = t.channel, t.rateK
		// A departed tag schedules no more frames, so nothing reads or
		// writes its dedup set again; dropping it keeps a long-running
		// gateway's memory from growing with every frame ever delivered.
		s.delivered = nil
		delete(g.tags, oldest)
	}
}

// EpochReport summarizes one served epoch. The JSON field names are the
// wire protocol's versioned metrics schema (internal/server); they are
// stable — new fields may be added, existing names never change meaning.
type EpochReport struct {
	Epoch      int `json:"epoch"`
	TagsActive int `json:"tags_active"`

	FramesScheduled int `json:"frames_scheduled"` // transmissions this epoch (regular + retransmits)
	Retransmits     int `json:"retransmits"`      // retransmissions among them
	FreshDelivered  int `json:"fresh_delivered"`  // unique frames first delivered this epoch
	WindowsEmitted  int `json:"windows_emitted"`

	CmdsSent       int `json:"cmds_sent"`
	CmdsDelivered  int `json:"cmds_delivered"`
	RateSwitches   int `json:"rate_switches"`
	Hops           int `json:"hops"`
	Recalibrations int `json:"recalibrations"`

	ChannelAttenDB []float64 `json:"channel_atten_db"`

	// FxpCycles is the MCU cycle budget the fixed-point datapath spent on
	// this epoch's decodes (0 under the float datapath); convert to
	// microwatts with energy.MCUBudget.
	FxpCycles uint64 `json:"fxp_cycles,omitempty"`

	// DeliveryRatio is the cumulative dedup-correct delivery over the whole
	// run after this epoch.
	DeliveryRatio float64 `json:"delivery_ratio"`

	// Elapsed is wall-clock serving time in nanoseconds. It is the one
	// non-deterministic field; wire consumers comparing snapshots across
	// runs should ignore it.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// RunEpoch serves one epoch: churn, multi-channel ingest, session fold,
// control loop. Commands issued by the control loop shape the next epoch.
// An epoch failure is latched: the deployment model may already carry this
// epoch's churn and degradations, so the gateway refuses to serve further
// epochs rather than re-applying them.
//
// Cancelling ctx aborts the epoch between ingest submissions; because the
// epoch is then half-served, cancellation latches like any other epoch
// failure. Callers wanting a resumable pause stop *between* RunEpoch calls
// instead. A nil ctx behaves like context.Background().
func (g *Gateway) RunEpoch(ctx context.Context) (EpochReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g.err != nil {
		return EpochReport{}, g.err
	}
	if err := ctx.Err(); err != nil {
		// Nothing of this epoch has been applied yet: refusing up front is
		// NOT latched, so a gateway survives a cancelled call that never
		// started.
		return EpochReport{}, err
	}
	start := time.Now() //lint:allow determinism EpochReport.Elapsed is documented wall-clock, never folded into snapshots
	epoch := g.epoch
	// Reset the span rings so each ring holds exactly this epoch's spans —
	// the per-epoch reset is what keeps anomaly dumps worker-count
	// invariant.
	g.cfg.Flight.BeginEpoch(epoch)
	g.applyChurn(epoch)

	preDelivered := g.agg.framesDelivered
	preCmdsSent, preCmdsDel := g.agg.cmdsSent, g.agg.cmdsDelivered
	preSwitch, preHops, preRecals := g.agg.rateSwitches, g.agg.hops, g.agg.recals
	preFxp := g.agg.fxpCycles

	plan := g.buildPlan(epoch)
	var ingestStart time.Time
	if g.met.on {
		ingestStart = time.Now()
	}
	if err := g.ingest(ctx, plan); err != nil {
		g.err = fmt.Errorf("gateway: epoch %d: %w", epoch, err)
		return EpochReport{}, g.err
	}
	g.met.stages[stageIngest].ObserveSince(0, ingestStart)
	g.fold(plan)
	var controlStart time.Time
	if g.met.on {
		controlStart = time.Now()
	}
	if err := g.control(epoch); err != nil {
		g.err = fmt.Errorf("gateway: epoch %d: %w", epoch, err)
		return EpochReport{}, g.err
	}
	g.met.stages[stageControl].ObserveSince(0, controlStart)
	g.epoch++
	g.met.epochs.Inc()
	g.met.sessions.Set(float64(len(g.sessions)))
	g.met.tagsActive.Set(float64(len(g.tags)))
	g.met.stages[stageEpoch].ObserveSince(0, start)

	rep := EpochReport{
		Epoch:          epoch,
		TagsActive:     len(g.tags),
		ChannelAttenDB: append([]float64(nil), g.atten...),
		CmdsSent:       int(g.agg.cmdsSent - preCmdsSent),
		CmdsDelivered:  int(g.agg.cmdsDelivered - preCmdsDel),
		RateSwitches:   int(g.agg.rateSwitches - preSwitch),
		Hops:           int(g.agg.hops - preHops),
		Recalibrations: int(g.agg.recals - preRecals),
		FreshDelivered: int(g.agg.framesDelivered - preDelivered),
		FxpCycles:      g.agg.fxpCycles - preFxp,
		DeliveryRatio:  ratio(g.agg.framesDelivered, g.agg.framesScheduled),
		Elapsed:        time.Since(start), //lint:allow determinism wall-clock report field, excluded from snapshot comparisons
	}
	for _, grp := range plan.groups {
		rep.FramesScheduled += len(grp.capture.Events)
		rep.Retransmits += len(grp.tl.Retransmits)
		rep.WindowsEmitted += grp.rcv.Windows()
	}
	// Health-plane epoch boundary: append this epoch's series in schedule
	// order and seal, which runs the SLO rules and journals transitions.
	// Runs after the report is final so scalar series mirror it exactly.
	g.health.observe(g, plan, rep)
	return rep, nil
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// ChannelSnapshot is the externally visible state of one ingest channel.
// JSON field names are part of the wire protocol's stable metrics schema.
type ChannelSnapshot struct {
	Channel       int     `json:"channel"`
	AttenDB       float64 `json:"atten_db"`
	Tags          int     `json:"tags"`
	NoiseBaseline float64 `json:"noise_baseline"` // hunt demodulator no-signal envelope baseline
	NoiseSigma    float64 `json:"noise_sigma"`    // hunt demodulator envelope noise deviation
}

// Snapshot is the gateway's full deterministic metrics state: for a fixed
// Config it is byte-identical at any worker count. JSON field names are
// part of the wire protocol's stable metrics schema (internal/server).
type Snapshot struct {
	Epochs     int `json:"epochs"`
	TagsSeen   int `json:"tags_seen"`
	TagsActive int `json:"tags_active"`

	// Dedup-correct frame accounting: unique frames only.
	FramesScheduled uint64 `json:"frames_scheduled"`
	FramesDelivered uint64 `json:"frames_delivered"`
	FramesDuplicate uint64 `json:"frames_duplicate"`

	RetransmitsScheduled uint64 `json:"retransmits_scheduled"`
	RetransmitsRecovered uint64 `json:"retransmits_recovered"`

	WindowsEmitted   uint64 `json:"windows_emitted"`
	WindowsUnmatched uint64 `json:"windows_unmatched"`
	SymbolsChecked   uint64 `json:"symbols_checked"`
	SymbolErrs       uint64 `json:"symbol_errs"`

	CmdsSent      uint64 `json:"cmds_sent"`
	CmdsDelivered uint64 `json:"cmds_delivered"`
	CmdsMissed    uint64 `json:"cmds_missed"`

	RateSwitches   uint64 `json:"rate_switches"`
	Hops           uint64 `json:"hops"`
	Recalibrations uint64 `json:"recalibrations"`

	// FxpCycles is the cumulative MCU cycle budget of the fixed-point
	// datapath across every decode the gateway ran (0 under the float
	// datapath); worker-count invariant like every other counter.
	FxpCycles uint64 `json:"fxp_cycles,omitempty"`

	Channels []ChannelSnapshot `json:"channels"`
	Sessions []SessionSnapshot `json:"sessions"` // ascending tag ID
}

// DeliveryRatio is the cumulative dedup-correct delivery: unique frames
// delivered error-free over unique frames scheduled.
func (s Snapshot) DeliveryRatio() float64 { return ratio(s.FramesDelivered, s.FramesScheduled) }

// String renders the aggregate as a one-line service report.
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"epochs=%d tags=%d/%d delivery=%.1f%% (%d/%d unique, %d dup) retx=%d/%d cmds=%d/%d switches=%d hops=%d recals=%d",
		s.Epochs, s.TagsActive, s.TagsSeen, 100*s.DeliveryRatio(),
		s.FramesDelivered, s.FramesScheduled, s.FramesDuplicate,
		s.RetransmitsRecovered, s.RetransmitsScheduled,
		s.CmdsDelivered, s.CmdsSent, s.RateSwitches, s.Hops, s.Recalibrations)
}

// Snapshot returns the current metrics state.
func (g *Gateway) Snapshot() Snapshot {
	snap := Snapshot{
		Epochs:               g.epoch,
		TagsSeen:             g.nextID,
		TagsActive:           len(g.tags),
		FramesScheduled:      g.agg.framesScheduled,
		FramesDelivered:      g.agg.framesDelivered,
		FramesDuplicate:      g.agg.framesDuplicate,
		RetransmitsScheduled: g.agg.retxScheduled,
		RetransmitsRecovered: g.agg.retxRecovered,
		WindowsEmitted:       g.agg.windowsEmitted,
		WindowsUnmatched:     g.agg.windowsUnmatched,
		SymbolsChecked:       g.agg.symbolsChecked,
		SymbolErrs:           g.agg.symbolErrs,
		CmdsSent:             g.agg.cmdsSent,
		CmdsDelivered:        g.agg.cmdsDelivered,
		CmdsMissed:           g.agg.cmdsMissed,
		RateSwitches:         g.agg.rateSwitches,
		Hops:                 g.agg.hops,
		Recalibrations:       g.agg.recals,
		FxpCycles:            g.agg.fxpCycles,
	}
	for ch, load := range g.channelLoad() {
		snap.Channels = append(snap.Channels, ChannelSnapshot{
			Channel:       ch,
			AttenDB:       g.atten[ch],
			Tags:          load,
			NoiseBaseline: g.chanNoise[ch].baseline,
			NoiseSigma:    g.chanNoise[ch].sigma,
		})
	}
	for _, id := range sortedIDs(g.sessions) {
		snap.Sessions = append(snap.Sessions, g.snapshotSession(g.sessions[id]))
	}
	return snap
}

// demod returns the configured demodulator chain at rate k.
func (c Config) demod(k int) core.Config {
	d := c.Demod
	d.Params.K = k
	return d
}

// Operator control plane. These methods mutate the deployment model the
// way a delivered downlink command would, and therefore must be called
// between epochs, on the goroutine driving RunEpoch (the protocol server
// serializes them with the epoch loop). They take effect on the next
// epoch's schedule. Because they are caller-driven, determinism is
// preserved: the same call sequence at the same epoch boundaries yields
// byte-identical snapshots at any worker count.

// operatorDump snapshots the flight rings for an operator action on tag
// (tag < 0 = deployment-wide): the dump's trace filter is the affected
// sessions' most recent epoch of frames, gathered in ascending tag order
// so the dump is deterministic. No-op without a recorder.
func (g *Gateway) operatorDump(tag int) {
	if g.cfg.Flight == nil {
		return
	}
	var traces []uint64
	channel := 0
	if tag >= 0 {
		if s, ok := g.sessions[tag]; ok {
			traces = append(traces, s.flightTraces...)
		}
		if t, ok := g.tags[tag]; ok {
			channel = t.channel
		}
	} else {
		for _, id := range sortedIDs(g.tags) {
			traces = append(traces, g.sessions[id].flightTraces...)
		}
	}
	g.cfg.Flight.Trigger(flight.KindOperator, g.epoch, channel, tag, 0, traces...)
}

// OverrideRate forces tag's downlink rate to k, bypassing the rate
// adapter for this epoch boundary (the control loop may re-adapt later
// unless the operator keeps overriding). tag < 0 applies the override to
// every deployed tag.
func (g *Gateway) OverrideRate(tag, k int) error {
	if g.err != nil {
		return g.err
	}
	if k < adapter.MinK || k > adapter.MaxK {
		return fmt.Errorf("gateway: rate K=%d outside adapter bounds [%d, %d]", k, adapter.MinK, adapter.MaxK)
	}
	apply := func(t *tagState) {
		if t.rateK != k {
			t.rateK = k
			g.sessions[t.id].rateSwitches++
			g.agg.rateSwitches++
		}
	}
	if tag < 0 {
		for _, id := range sortedIDs(g.tags) {
			apply(g.tags[id])
		}
		g.operatorDump(-1)
		return nil
	}
	t, ok := g.tags[tag]
	if !ok {
		return fmt.Errorf("gateway: tag %d not deployed", tag)
	}
	apply(t)
	g.operatorDump(tag)
	return nil
}

// MoveTag reassigns tag to the given ingest channel (an operator-forced
// channel hop).
func (g *Gateway) MoveTag(tag, channel int) error {
	if g.err != nil {
		return g.err
	}
	if channel < 0 || channel >= g.cfg.Channels {
		return fmt.Errorf("gateway: channel %d of %d", channel, g.cfg.Channels)
	}
	t, ok := g.tags[tag]
	if !ok {
		return fmt.Errorf("gateway: tag %d not deployed", tag)
	}
	if t.channel != channel {
		t.channel = channel
		g.sessions[tag].hops++
		g.agg.hops++
	}
	g.operatorDump(tag)
	return nil
}

// Rebalance re-deals every deployed tag across the ingest channels
// round-robin in ascending tag order — a full channel-plan swap. It
// reports how many tags changed channel.
func (g *Gateway) Rebalance() (moved int, err error) {
	if g.err != nil {
		return 0, g.err
	}
	for i, id := range sortedIDs(g.tags) {
		ch := i % g.cfg.Channels
		t := g.tags[id]
		if t.channel != ch {
			t.channel = ch
			g.sessions[id].hops++
			g.agg.hops++
			moved++
		}
	}
	g.operatorDump(-1)
	return moved, nil
}
