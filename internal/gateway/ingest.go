package gateway

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"saiyan/internal/flight"
	"saiyan/internal/pipeline"
	"saiyan/internal/sim"
	"saiyan/internal/stream"
)

// epochPlan is one epoch's ingest layout: every (rate K, channel) group
// with at least one tag, in ascending (K, channel) order.
type epochPlan struct {
	epoch  int
	groups []*ingestGroup
}

// ingestGroup is one rendered capture: the tags of one channel currently
// commanded to rate K, plus that tag subset's retransmissions.
type ingestGroup struct {
	k       int
	channel int
	set     *sim.TagSet
	tl      sim.TimelineConfig

	capture *sim.Stream
	rcv     *stream.Receiver // the capture's receive chain, built by segment
	// outcomes is the per-event decode outcome, filled by the result fold.
	outcomes []eventOutcome
}

// eventOutcome is what happened to one scheduled transmission.
type eventOutcome struct {
	decoded    bool // a matched window produced a decode
	detected   bool
	symbolErrs int
	correct    bool
	offset     int64
}

// buildPlan groups the deployment by (rate, channel) and drafts each
// group's timeline: the regular per-epoch schedule plus any retransmissions
// the control loop commanded, with sequence numbers offset so every epoch
// transmits globally fresh frames.
func (g *Gateway) buildPlan(epoch int) *epochPlan {
	plan := &epochPlan{epoch: epoch}
	byGroup := make(map[[2]int]*ingestGroup)
	for _, id := range sortedIDs(g.tags) {
		t := g.tags[id]
		key := [2]int{t.rateK, t.channel}
		grp := byGroup[key]
		if grp == nil {
			grp = &ingestGroup{
				k:       t.rateK,
				channel: t.channel,
				set:     &sim.TagSet{Params: g.cfg.demod(t.rateK).Params, Seed: g.cfg.Seed},
				tl: sim.TimelineConfig{
					FramesPerTag: g.cfg.FramesPerTag,
					SeqBase:      uint64(epoch) * uint64(g.cfg.FramesPerTag),
				},
			}
			byGroup[key] = grp
			plan.groups = append(plan.groups, grp)
		}
		grp.set.Tags = append(grp.set.Tags, sim.SimTag{
			ID:        id,
			DistanceM: t.distanceM,
			RSSDBm:    g.rssAt(t),
		})
		for _, seq := range t.retxNext {
			grp.tl.Retransmits = append(grp.tl.Retransmits, sim.Retransmit{Tag: id, Seq: seq})
		}
		t.retxNext = nil
	}
	sort.Slice(plan.groups, func(i, j int) bool {
		a, b := plan.groups[i], plan.groups[j]
		if a.k != b.k {
			return a.k < b.k
		}
		return a.channel < b.channel
	})
	return plan
}

// huntRSS is the segmenter calibration level for one group: the mean of
// its sessions' calibration anchors (the RSS the control loop most
// recently commanded each tag to recalibrate at), which is how the
// re-calibration trigger feeds back into the ingest path.
func (g *Gateway) huntRSS(grp *ingestGroup) float64 {
	sum := 0.0
	for _, t := range grp.set.Tags {
		sum += g.sessions[t.ID].calAnchorSNR + g.noiseFloorDB
	}
	return sum / float64(len(grp.set.Tags))
}

// ingest renders every group's capture (concurrently, see renderGroups),
// then demodulates all groups of each rate through one shared worker pool,
// segmenting that rate's groups one after another in (K, channel) order.
// Decode results are folded back into each group's per-event outcomes by
// the schedule event each window claimed, so the fold is independent of
// worker scheduling.
func (g *Gateway) ingest(ctx context.Context, plan *epochPlan) error {
	if len(plan.groups) == 0 {
		return nil
	}
	var renderStart time.Time
	if g.met.on {
		renderStart = time.Now()
	}
	if err := g.renderGroups(plan.groups); err != nil {
		return err
	}
	g.met.stages[stageRender].ObserveSince(0, renderStart)

	// One worker pool per rate: groups sharing a K share PHY parameters and
	// therefore a pipeline, whatever channel they arrived on.
	var decodeStart time.Time
	if g.met.on {
		decodeStart = time.Now()
	}
	for lo := 0; lo < len(plan.groups); {
		hi := lo
		for hi < len(plan.groups) && plan.groups[hi].k == plan.groups[lo].k {
			hi++
		}
		if err := g.ingestRateGroup(ctx, plan.epoch, plan.groups[lo:hi]); err != nil {
			return err
		}
		lo = hi
	}
	g.met.stages[stageDecode].ObserveSince(0, decodeStart)

	// Channel-level accounting: windows, noise stats (last group of a
	// channel wins — deterministic, since groups are ordered).
	for _, grp := range plan.groups {
		g.agg.windowsEmitted += uint64(grp.rcv.Windows())
		g.agg.windowsUnmatched += uint64(grp.rcv.Unmatched())
		n := &g.chanNoise[grp.channel]
		n.baseline, n.sigma = grp.rcv.NoiseStats()
	}
	return nil
}

// renderGroups renders every group's capture, at most Config.Workers at a
// time, longest first (renderCost), so the largest render does not start
// last and run alone. RenderTimeline is a pure function of the tag set,
// the timeline and the demodulator configuration, so the captures are the
// same whatever the concurrency and dispatch order; everything
// order-sensitive (segmentation, flight shard 0, metrics) runs afterwards
// on the epoch goroutine, in group order. On failure it reports the first
// failing group in that order.
func (g *Gateway) renderGroups(groups []*ingestGroup) error {
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return renderCost(groups[order[a]]) > renderCost(groups[order[b]])
	})
	errs := make([]error, len(groups))
	sem := make(chan struct{}, g.cfg.Workers)
	var wg sync.WaitGroup
	for _, i := range order {
		grp := groups[i]
		demod := g.cfg.demod(grp.k)
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() {
				<-sem
				wg.Done()
			}()
			grp.capture, errs[i] = grp.set.RenderTimeline(demod, grp.tl)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("rendering K=%d channel %d: %w", groups[i].k, groups[i].channel, err)
		}
	}
	return nil
}

// renderCost estimates a group's render time: its frame count, doubled
// per step of K, because the sampler rate (3.2*BW/2^(SF-K)), and with it
// the samples rendered per symbol, doubles per step.
func renderCost(grp *ingestGroup) int {
	frames := len(grp.set.Tags)*grp.tl.FramesPerTag + len(grp.tl.Retransmits)
	return frames << grp.k
}

// jobRef is what the result fold needs of one submitted window: the group
// it came from and the schedule event it claimed (-1 for an unmatched
// window), with its detection offset in sampler samples.
type jobRef struct {
	grp    *ingestGroup
	event  int
	offset int64
}

// ingestRateGroup drives one rate's groups through a shared pipeline: each
// group is segmented in turn straight into the worker pool, and every
// result lands on the one event its window claimed. Cancelling ctx aborts
// between chunk pushes and before each submission; windows already
// submitted still decode before Collect returns.
func (g *Gateway) ingestRateGroup(ctx context.Context, epoch int, groups []*ingestGroup) error {
	pcfg := pipeline.Config{
		Demod:   g.cfg.demod(groups[0].k),
		Workers: g.cfg.Workers,
		Seed:    g.cfg.Seed,
		Metrics: g.cfg.Metrics,
		// Workers write flight shards 1..Workers, keeping shard 0 to
		// the segmenters.
		Flight: g.cfg.Flight,
	}
	p, err := pipeline.New(pcfg)
	if err != nil {
		return err
	}

	var refs []jobRef
	results := make([]pipeline.Result, 0, 64)
	st, err := p.Collect(func() error {
		for _, grp := range groups {
			if err := g.segment(ctx, p, epoch, grp, &refs); err != nil {
				return err
			}
		}
		return nil
	}, func(r pipeline.Result) { results = append(results, r) })
	// The fixed-point datapath's cycle ledger is deterministic per decode,
	// so the gateway-wide sum is worker-count invariant like every other
	// aggregate counter (0 under the float datapath).
	g.agg.fxpCycles += st.FxpCycles
	if err != nil {
		return err
	}

	// Results arrive in worker-completion order, but each writes only the
	// event its window claimed, so the order cannot show.
	for _, res := range results {
		if res.Seq >= uint64(len(refs)) {
			return fmt.Errorf("gateway: result for unknown submission %d", res.Seq)
		}
		ref := refs[res.Seq]
		if ref.event < 0 {
			continue // ghost window: counted in the group's unmatched windows
		}
		ref.grp.outcomes[ref.event] = eventOutcome{
			decoded:    res.Err == nil,
			detected:   res.Detected,
			symbolErrs: res.SymbolErrs,
			correct:    res.Err == nil && res.Detected && res.SymbolErrs == 0,
			offset:     ref.offset,
		}
	}
	return nil
}

// segment runs grp's capture through a stream.Receiver and submits each
// window to p as it is cut, so segmentation overlaps decode. A window that
// claimed a scheduled frame carries the frame's trace ID and leaves a
// segment-stage span on flight shard 0, which belongs to this (submission)
// goroutine. refs gains one entry per submission, in submission order.
func (g *Gateway) segment(ctx context.Context, p *pipeline.Pipeline, epoch int, grp *ingestGroup, refs *[]jobRef) error {
	hunt := g.huntRSS(grp)
	grp.outcomes = make([]eventOutcome, len(grp.capture.Events))
	rcv, err := stream.NewReceiver(stream.Config{
		Demod:      g.cfg.demod(grp.k),
		HuntRSSDBm: hunt,
		Seed:       g.cfg.Seed,
		Metrics:    g.cfg.Metrics,
	}, grp.capture, func(j pipeline.Job, event int, start int64) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		ref := jobRef{grp: grp, event: event}
		if event >= 0 {
			ev := grp.capture.Events[event]
			ref.offset = start - int64(ev.StartSamp)
			if rec := g.cfg.Flight; rec != nil {
				j.Trace = flight.TraceID(epoch, grp.channel, ev.Tag, ev.Seq)
				rec.Append(0, flight.Span{
					Trace:    j.Trace,
					Seq:      uint32(ev.Seq),
					Epoch:    uint32(epoch),
					Tag:      uint16(ev.Tag),
					Channel:  uint16(grp.channel),
					Stage:    flight.StageSegment,
					Decision: flight.WindowMatched,
					A:        hunt,
					B:        float64(start),
				})
			}
		}
		*refs = append(*refs, ref)
		return p.Submit(j)
	})
	if err != nil {
		return fmt.Errorf("segmenting K=%d channel %d: %w", grp.k, grp.channel, err)
	}
	grp.rcv = rcv
	return rcv.Run(ctx, g.cfg.ChunkSamples)
}
