package sim

import (
	"fmt"
	"math"

	"saiyan/internal/core"
	"saiyan/internal/dsp"
	"saiyan/internal/lora"
)

// Timeline generation: where TagSet.NewTraffic delivers pre-cut frames with
// oracle boundaries, RenderTimeline renders what a deployed receiver
// actually faces — one continuous multi-tag envelope in which packets sit
// at unknown offsets, separated by idle gaps, occasionally colliding, and
// delivered in arbitrary chunks. This is the workload of the paper's packet
// detection problem (Section 3.2): the receiver must *find* frames before
// it can demodulate them.

// Derived-stream salts for tagStreamSeed, chosen beyond any plausible tag
// index so schedule and noise RNGs never collide with a tag payload stream
// (and kept below MaxInt32 so 32-bit targets still compile).
const (
	scheduleStream = 1 << 30
	noiseStream    = 1<<30 + 1
)

const (
	// leadSymbols is the idle air before the first frame and after the
	// last, in symbol times (so segmentation never sees a frame at sample
	// zero).
	leadSymbols = 4
	// overlapSymbols is the collision depth of an OverlapEvery frame, in
	// symbol times.
	overlapSymbols = 4
)

// TimelineConfig shapes a continuous capture.
type TimelineConfig struct {
	// FramesPerTag schedules this many frames from every tag, round-robin.
	FramesPerTag int

	// MinGapSymbols / MaxGapSymbols bound the idle gap drawn before each
	// frame, in symbol times. Defaults 2 and 12. MinGapSymbols also sets the
	// floor that keeps adjacent frames unambiguous to Match.
	MinGapSymbols, MaxGapSymbols float64

	// OverlapEvery, when positive, schedules every OverlapEvery-th frame to
	// start overlapSymbols symbol times before the previous frame ends — a
	// collision the segmenter is expected to lose, the way a real gateway
	// loses colliding backscatter packets.
	OverlapEvery int

	// SeqBase offsets every scheduled frame's per-tag sequence number: tag
	// payloads are pure functions of (Seed, tag, seq), so a long-running
	// gateway renders epoch e with SeqBase = e*FramesPerTag and every epoch
	// carries fresh, globally-unique frames instead of replaying epoch 0.
	SeqBase uint64

	// Retransmits appends explicit extra transmissions after the round-robin
	// schedule — the frames a gateway's downlink commanded the tags to send
	// again. Each re-encodes the same (Tag, Seq)-keyed data word stream its
	// original transmission carried (at the set's current rate, if a rate
	// command landed in between), which is what frame-level dedup at the
	// receiver keys on.
	Retransmits []Retransmit
}

// Retransmit names one explicitly re-scheduled transmission.
type Retransmit struct {
	Tag int
	Seq uint64
}

// withDefaults fills zero fields and validates.
func (tl TimelineConfig) withDefaults() (TimelineConfig, error) {
	if tl.FramesPerTag < 1 {
		return tl, fmt.Errorf("sim: frames per tag %d < 1", tl.FramesPerTag)
	}
	if tl.MinGapSymbols == 0 {
		tl.MinGapSymbols = 2
	}
	if tl.MaxGapSymbols == 0 {
		tl.MaxGapSymbols = 12
	}
	if tl.MinGapSymbols < 1 || tl.MaxGapSymbols < tl.MinGapSymbols {
		return tl, fmt.Errorf("sim: gap range [%g, %g] symbols invalid (min >= 1)", tl.MinGapSymbols, tl.MaxGapSymbols)
	}
	return tl, nil
}

// StreamFrame is one transmission scheduled on a timeline: the ground truth
// a stream receiver is scored against.
type StreamFrame struct {
	Tag       int
	Seq       uint64 // per-tag frame sequence number
	RSSDBm    float64
	Want      []int // transmitted payload symbols
	StartSim  int   // first sample of the frame at the simulation rate
	StartSamp int   // first sampler-rate sample at or after StartSim
	Collides  bool  // scheduled to overlap the previous frame
	// Retransmitted marks an event scheduled through
	// TimelineConfig.Retransmits rather than the regular round-robin
	// rounds, so receivers can account recoveries without re-deriving the
	// schedule layout.
	Retransmitted bool
}

// Stream is a rendered continuous capture: the envelope(s) a receiver
// samples, plus the schedule that produced them.
type Stream struct {
	// Events is the transmission schedule in start order.
	Events []StreamFrame
	// Env is the continuous comparator-sampler-rate envelope.
	Env []float64
	// EnvC is the continuous correlator-rate envelope (ModeFull only, at
	// CorrOversample samples per Env sample; nil otherwise).
	EnvC []float64
	// SampleRateHz is the rate of Env.
	SampleRateHz float64
	// SamplesPerSymbol is the (fractional) symbol period in Env samples.
	SamplesPerSymbol float64
	// CorrOversample is len-ratio EnvC:Env (0 when EnvC is nil).
	CorrOversample int
	// PayloadSymbols is the payload length of every scheduled frame.
	PayloadSymbols int
}

// RenderTimeline schedules FramesPerTag frames from every tag of the set
// round-robin along one continuous timeline — idle gaps drawn from the gap
// range, optional collisions — composes the superposed antenna signal, and
// renders it through the demodulator chain of cfg in a single pass. The
// result is deterministic in (cfg, tl, ts.Seed).
func (ts *TagSet) RenderTimeline(cfg core.Config, tl TimelineConfig) (*Stream, error) {
	tl, err := tl.withDefaults()
	if err != nil {
		return nil, err
	}
	d, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if d.Config().Params != ts.Params {
		return nil, fmt.Errorf("sim: demodulator params %v differ from tag set params %v", d.Config().Params, ts.Params)
	}
	fsSim := d.SimRateHz()
	spbSim := ts.Params.SamplesPerSymbol(fsSim)
	symSamples := func(sym float64) int { return int(math.Round(sym * float64(spbSim))) }

	// Schedule: walk the round-robin order, drawing the idle gap before
	// each frame; every OverlapEvery-th frame instead starts inside the
	// previous one.
	rng := dsp.NewRand(tagStreamSeed(ts.Seed, scheduleStream), 0)
	regular := len(ts.Tags) * tl.FramesPerTag
	total := regular + len(tl.Retransmits)
	events := make([]StreamFrame, 0, total)
	frames := make([]*lora.Frame, 0, total)
	at := symSamples(leadSymbols)
	prevEnd := at
	for i := 0; i < total; i++ {
		var tag SimTag
		var seq uint64
		retx := i >= regular
		if !retx {
			tag = ts.Tags[i%len(ts.Tags)]
			seq = tl.SeqBase + uint64(i/len(ts.Tags))
		} else {
			// Retransmissions ride at the end of the schedule, the way a
			// gateway's follow-up slots trail the regular rounds.
			rt := tl.Retransmits[i-regular]
			t := ts.TagByID(rt.Tag)
			if t == nil {
				return nil, fmt.Errorf("sim: retransmit for tag %d not in the set", rt.Tag)
			}
			tag, seq = *t, rt.Seq
		}
		frame, want, err := ts.Frame(tag.ID, seq)
		if err != nil {
			return nil, err
		}
		// The trajectory itself is generated at compose time, one frame at
		// a time, into a reused buffer.
		trajLen := frame.TrajectoryLen(fsSim)
		gap := tl.MinGapSymbols + rng.Float64()*(tl.MaxGapSymbols-tl.MinGapSymbols)
		start := prevEnd + symSamples(gap)
		collides := false
		if tl.OverlapEvery > 0 && i > 0 && i%tl.OverlapEvery == 0 {
			start = prevEnd - symSamples(overlapSymbols)
			if start < 0 {
				start = 0
			}
			collides = true
		}
		events = append(events, StreamFrame{
			Tag:           tag.ID,
			Seq:           seq,
			RSSDBm:        tag.RSSDBm,
			Want:          want,
			StartSim:      start,
			Collides:      collides,
			Retransmitted: retx,
		})
		frames = append(frames, frame)
		if end := start + trajLen; end > prevEnd {
			prevEnd = end
		}
	}

	// Compose the superposed antenna signal and render the whole capture
	// through the chain once.
	x := make([]complex128, prevEnd+symSamples(leadSymbols))
	var traj []float64
	for i, ev := range events {
		traj = frames[i].FreqTrajectory(traj[:0], fsSim)
		d.ComposeSignal(x, ev.StartSim, traj, ev.RSSDBm)
	}
	env, envC := d.RenderStream(x, dsp.NewRand(tagStreamSeed(ts.Seed, noiseStream), 0))

	s := &Stream{
		Events:           events,
		Env:              env,
		EnvC:             envC,
		SampleRateHz:     d.SamplerRateHz(),
		SamplesPerSymbol: d.SamplesPerSymbol(),
		PayloadSymbols:   len(events[0].Want),
	}
	if envC != nil {
		s.CorrOversample = d.Config().CorrOversample
	}
	// Map simulation-rate starts onto the sampler grid: sampler sample k
	// sits at simulation index Oversample/2 + k*Oversample.
	ovs := d.Config().Oversample
	for i := range s.Events {
		s.Events[i].StartSamp = (s.Events[i].StartSim - ovs/2 + ovs - 1) / ovs
	}
	return s, nil
}

// Chunk is one delivery unit of a continuous capture: a slice of the
// sampler-rate envelope and the matching correlator-rate slice.
type Chunk struct {
	Env  []float64
	EnvC []float64
}

// Chunks cuts the capture into delivery chunks of chunkSamples sampler-rate
// samples (the final chunk may be shorter). Boundaries fall wherever they
// fall — frames routinely straddle chunks, which is exactly what a stream
// segmenter must cope with. The chunks alias the capture's envelopes.
func (s *Stream) Chunks(chunkSamples int) []Chunk {
	if chunkSamples < 1 {
		chunkSamples = len(s.Env)
	}
	var out []Chunk
	for at := 0; at < len(s.Env); at += chunkSamples {
		hi := min(at+chunkSamples, len(s.Env))
		c := Chunk{Env: s.Env[at:hi]}
		if s.EnvC != nil {
			r := s.CorrOversample
			cLo, cHi := at*r, hi*r
			if cLo > len(s.EnvC) {
				cLo = len(s.EnvC)
			}
			if cHi > len(s.EnvC) || hi == len(s.Env) {
				cHi = len(s.EnvC)
			}
			c.EnvC = s.EnvC[cLo:cHi]
		}
		out = append(out, c)
	}
	return out
}

// Match finds the scheduled frame whose start lies within three symbol
// times of the given sampler-rate index, returning its index into Events.
// Detection may lock a chirp or two late (the leading chirp of a
// stream-extracted frame is degraded by the noise-to-signal transition);
// three symbols of slack absorbs that while staying far below the
// ~46-symbol spacing between consecutive frame starts.
func (s *Stream) Match(startSamp int64) (int, bool) {
	tol := 3 * s.SamplesPerSymbol
	best, bestDist := -1, math.Inf(1)
	for i := range s.Events {
		dist := math.Abs(float64(startSamp - int64(s.Events[i].StartSamp)))
		if dist < bestDist {
			best, bestDist = i, dist
		}
	}
	if best >= 0 && bestDist <= tol {
		return best, true
	}
	return -1, false
}
