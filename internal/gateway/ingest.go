package gateway

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

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
	src     *stream.Source

	// matches records, in window-emission order, which schedule event each
	// matched window resolved to and at what detection offset.
	matches []matchInfo
	// outcomes is the per-event decode outcome, filled by the result fold.
	outcomes []eventOutcome

	windows   int // windows emitted by this group's segmenter
	unmatched int // windows that resolved to no schedule entry
}

type matchInfo struct {
	event  int
	offset int64 // detection offset in sampler samples
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
	for _, id := range g.aliveIDs() {
		t := g.tags[id]
		key := [2]int{t.rateK, t.channel}
		grp := byGroup[key]
		if grp == nil {
			grp = &ingestGroup{
				k:       t.rateK,
				channel: t.channel,
				set:     &sim.TagSet{Params: g.params(t.rateK), Seed: g.cfg.Seed},
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
// segments each in group order, and demodulates all groups of each rate
// through one shared worker pool, interleaving submission round-robin
// across that rate's channels. Decode results are folded back into each
// group's per-event outcomes in schedule order, so the fold is independent
// of worker scheduling.
func (g *Gateway) ingest(ctx context.Context, plan *epochPlan) error {
	if len(plan.groups) == 0 {
		return nil
	}
	var renderStart time.Time
	if g.met != nil {
		renderStart = time.Now()
	}
	if err := g.renderGroups(plan.groups); err != nil {
		return err
	}
	for _, grp := range plan.groups {
		demod := g.cfg.Demod
		demod.Params = g.params(grp.k)
		grp.outcomes = make([]eventOutcome, len(grp.capture.Events))
		scfg := stream.Config{
			Demod:          demod,
			PayloadSymbols: grp.capture.PayloadSymbols,
			HuntRSSDBm:     g.huntRSS(grp),
			Seed:           g.cfg.Seed,
			Metrics:        g.cfg.Metrics,
			// Segmentation runs on this (submission) goroutine, so every
			// segmenter shares the control-plane flight shard 0.
			Flight:        g.cfg.Flight,
			FlightEpoch:   plan.epoch,
			FlightChannel: grp.channel,
		}
		src, err := stream.NewSource(scfg, grp.capture.Chunks(g.cfg.ChunkSamples), grp.matcher())
		if err != nil {
			return fmt.Errorf("segmenting K=%d channel %d: %w", grp.k, grp.channel, err)
		}
		grp.src = src
	}
	g.met.stageSince(stageRender, renderStart)

	// One worker pool per rate: groups sharing a K share PHY parameters and
	// therefore a pipeline, whatever channel they arrived on.
	var decodeStart time.Time
	if g.met != nil {
		decodeStart = time.Now()
	}
	for lo := 0; lo < len(plan.groups); {
		hi := lo
		for hi < len(plan.groups) && plan.groups[hi].k == plan.groups[lo].k {
			hi++
		}
		if err := g.ingestRateGroup(ctx, plan.groups[lo:hi]); err != nil {
			return err
		}
		lo = hi
	}
	g.met.stageSince(stageDecode, decodeStart)

	// Channel-level accounting: windows, noise stats (last group of a
	// channel wins — deterministic, since groups are ordered).
	for _, grp := range plan.groups {
		grp.windows = grp.src.Windows()
		grp.unmatched = grp.windows - grp.src.Matched()
		g.agg.windowsEmitted += uint64(grp.windows)
		g.agg.windowsUnmatched += uint64(grp.unmatched)
		baseline, sigma := grp.src.NoiseStats()
		g.chanNoise[grp.channel] = noiseStats{baseline: baseline, sigma: sigma}
	}
	return nil
}

// renderGroups renders every group's capture, at most Config.Workers at a
// time. RenderTimeline is a pure function of the tag set, the timeline and
// the demodulator configuration, so the captures are the same whatever the
// concurrency; everything order-sensitive (segmentation, flight shard 0,
// metrics) runs afterwards on the epoch goroutine, in group order. On
// failure it reports the first failing group in that order.
func (g *Gateway) renderGroups(groups []*ingestGroup) error {
	errs := make([]error, len(groups))
	sem := make(chan struct{}, g.cfg.Workers)
	var wg sync.WaitGroup
	for i, grp := range groups {
		demod := g.cfg.Demod
		demod.Params = g.params(grp.k)
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

// matcher resolves extracted windows against the group's schedule while
// recording, in emission order, which event each matched window claimed
// and its detection offset — the identity the result fold needs. Each
// event is claimed at most once; duplicate windows go through unmatched.
func (grp *ingestGroup) matcher() stream.Matcher {
	claimed := make([]bool, len(grp.capture.Events))
	return func(startSamp int64) (int, uint64, []int, bool) {
		idx, ok := grp.capture.Match(startSamp)
		if !ok || claimed[idx] {
			return 0, 0, nil, false
		}
		claimed[idx] = true
		ev := grp.capture.Events[idx]
		grp.matches = append(grp.matches, matchInfo{
			event:  idx,
			offset: startSamp - int64(ev.StartSamp),
		})
		return ev.Tag, ev.Seq, ev.Want, true
	}
}

// submission bookkeeping: which group a pipeline job came from and, for
// matched windows, its ordinal among the group's matches.
type jobMeta struct {
	group int // index into the rate-group slice passed to ingestRateGroup
	match int // ordinal into group.matches, -1 for unmatched windows
}

// ingestRateGroup drives one rate's groups through a shared pipeline:
// submission pulls one window at a time from each group's source in
// round-robin, results are collected and replayed in submission order.
// Cancelling ctx aborts between submissions; windows already submitted
// still decode before Drain returns.
func (g *Gateway) ingestRateGroup(ctx context.Context, groups []*ingestGroup) error {
	pcfg := pipeline.Config{
		Demod:   g.cfg.Demod,
		Workers: g.cfg.Workers,
		Seed:    g.cfg.Seed,
		Metrics: g.cfg.Metrics,
		// Workers write flight shards 1..Workers (pipeline defaults
		// FlightShard to 1), keeping shard 0 to the segmenter above.
		Flight: g.cfg.Flight,
	}
	pcfg.Demod.Params = g.params(groups[0].k)
	p, err := pipeline.New(pcfg)
	if err != nil {
		return err
	}

	var metas []jobMeta
	results := make([]pipeline.Result, 0, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range p.Results() {
			results = append(results, r)
		}
	}()

	matched := make([]int, len(groups))
	live := len(groups)
	exhausted := make([]bool, len(groups))
	var submitErr error
	for live > 0 && submitErr == nil {
		for gi := range groups {
			if err := ctx.Err(); err != nil {
				submitErr = err
				break
			}
			if exhausted[gi] {
				continue
			}
			job, err := groups[gi].src.Next()
			if err == io.EOF {
				exhausted[gi] = true
				live--
				continue
			}
			if err != nil {
				submitErr = fmt.Errorf("segmenting K=%d channel %d: %w", groups[gi].k, groups[gi].channel, err)
				break
			}
			meta := jobMeta{group: gi, match: -1}
			if job.Tag >= 0 {
				meta.match = matched[gi]
				matched[gi]++
			}
			metas = append(metas, meta)
			if err := p.Submit(job); err != nil {
				submitErr = err
				break
			}
		}
	}
	st := p.Drain()
	<-done
	// The fixed-point datapath's cycle ledger is deterministic per decode,
	// so the gateway-wide sum is worker-count invariant like every other
	// aggregate counter (0 under the float datapath).
	g.agg.fxpCycles += st.FxpCycles
	if submitErr != nil {
		return submitErr
	}

	// Fold in submission order: results arrive in worker-completion order,
	// but every result carries its submission sequence number.
	sort.Slice(results, func(i, j int) bool { return results[i].Seq < results[j].Seq })
	for _, res := range results {
		if res.Seq >= uint64(len(metas)) {
			return fmt.Errorf("gateway: result for unknown submission %d", res.Seq)
		}
		meta := metas[res.Seq]
		grp := groups[meta.group]
		if meta.match < 0 {
			continue // ghost window: counted via src.Matched accounting
		}
		mi := grp.matches[meta.match]
		out := eventOutcome{
			decoded:  res.Err == nil,
			detected: res.Detected,
			offset:   mi.offset,
		}
		out.symbolErrs = res.SymbolErrs
		out.correct = res.Err == nil && res.Detected && res.SymbolErrs == 0
		grp.outcomes[mi.event] = out
	}
	return nil
}
