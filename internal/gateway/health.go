package gateway

import (
	"maps"
	"slices"
	"strconv"

	"saiyan/internal/flight"
	"saiyan/internal/health"
)

// gatewayHealth is the gateway's link-health series set: a nil
// *gatewayHealth (Config.Health unset) no-ops every method, handles are
// resolved once at construction, and the per-epoch observe pass reuses
// preallocated scratch so the epoch path stays allocation-free in steady
// state.
//
// Everything appended here is a pure function of deterministic gateway
// state — plan groups in schedule order, sessions walked in ascending
// tag order — never of the obs registry or wall clock, which is what
// keeps rollups and alert journals byte-identical at any worker count.
type gatewayHealth struct {
	store *health.Store

	delivery  *health.Series
	scheduled *health.Series
	fresh     *health.Series
	retx      *health.Series
	tags      *health.Series
	fxp       *health.Series

	chanPRR []*health.Series // per channel
	chanSNR []*health.Series
	chanOcc []*health.Series
	rateK   []*health.Series // index K (MinK..MaxK populated)

	// Per-epoch scratch, reused across epochs.
	chSched   []int
	chCorrect []int
	chFail    []uint64 // first failing event's trace per channel, 0 = none
	chSNRSum  []float64
	chSNRN    []int
	kFrames   []int
	ids       []int // ascending-tag iteration order
}

// newGatewayHealth registers the full deterministic series set up
// front: channel count and the adapter's rate range are fixed for the
// gateway's lifetime, so nothing registers lazily mid-run (store
// registration is a cold-path operation, banned in hotpath bodies by
// the obsgate analyzer).
func newGatewayHealth(st *health.Store, channels, minK, maxK int) *gatewayHealth {
	if st == nil {
		return nil
	}
	h := &gatewayHealth{
		store:     st,
		delivery:  st.Series("gateway.delivery_ratio"),
		scheduled: st.Series("gateway.frames_scheduled"),
		fresh:     st.Series("gateway.fresh_delivered"),
		retx:      st.Series("gateway.retransmits"),
		tags:      st.Series("gateway.tags_active"),
		fxp:       st.Series("gateway.fxp_cycles"),
		chanPRR:   make([]*health.Series, channels),
		chanSNR:   make([]*health.Series, channels),
		chanOcc:   make([]*health.Series, channels),
		rateK:     make([]*health.Series, maxK+1),
		chSched:   make([]int, channels),
		chCorrect: make([]int, channels),
		chFail:    make([]uint64, channels),
		chSNRSum:  make([]float64, channels),
		chSNRN:    make([]int, channels),
		kFrames:   make([]int, maxK+1),
	}
	for ch := 0; ch < channels; ch++ {
		base := "channel." + strconv.Itoa(ch)
		h.chanPRR[ch] = st.Series(base + ".prr")
		h.chanSNR[ch] = st.Series(base + ".snr")
		h.chanOcc[ch] = st.Series(base + ".occupancy")
	}
	for k := minK; k <= maxK; k++ {
		h.rateK[k] = st.Series("rate." + strconv.Itoa(k) + ".frames")
	}
	return h
}

// observe appends one epoch's series and seals the store's epoch. It
// runs at the tail of RunEpoch, on the epoch goroutine, after the fold
// and control passes — plan outcomes and the report are final.
func (h *gatewayHealth) observe(g *Gateway, plan *epochPlan, rep EpochReport) {
	if h == nil {
		return
	}
	epoch := rep.Epoch

	clear(h.chSched)
	clear(h.chCorrect)
	clear(h.chFail)
	clear(h.chSNRSum)
	clear(h.chSNRN)
	clear(h.kFrames)

	// Per-event accounting in schedule order, exactly the fold's walk.
	// The first failed event per channel becomes the PRR exemplar trace;
	// trace IDs are pure (epoch, channel, tag, seq) hashes, so they are
	// identical whether or not a flight recorder is attached.
	for _, grp := range plan.groups {
		if grp.k < len(h.kFrames) {
			h.kFrames[grp.k] += len(grp.capture.Events)
		}
		ch := grp.channel
		h.chSched[ch] += len(grp.capture.Events)
		for ei, ev := range grp.capture.Events {
			if grp.outcomes[ei].correct {
				h.chCorrect[ch]++
			} else if h.chFail[ch] == 0 {
				h.chFail[ch] = flight.TraceID(plan.epoch, ch, ev.Tag, ev.Seq)
			}
		}
	}

	// Session walk in ascending tag order (float sums are order
	// sensitive; ascending IDs is the package-wide determinism idiom).
	// The collect-then-sort runs on the reused scratch slice, and
	// slices.Sort is allocation-free, so the epoch path stays zero-alloc.
	h.ids = slices.AppendSeq(h.ids[:0], maps.Keys(g.tags))
	slices.Sort(h.ids)
	occ := h.chSNRN // occupancy == SNR sample count per channel
	for _, id := range h.ids {
		t := g.tags[id]
		h.chSNRSum[t.channel] += g.sessions[id].snrEst
		occ[t.channel]++
	}

	for ch := range h.chanPRR {
		if h.chSched[ch] > 0 {
			prr := float64(h.chCorrect[ch]) / float64(h.chSched[ch])
			h.chanPRR[ch].AppendTrace(epoch, prr, h.chFail[ch])
		}
		if occ[ch] > 0 {
			h.chanSNR[ch].Append(epoch, h.chSNRSum[ch]/float64(occ[ch]))
		}
		h.chanOcc[ch].Append(epoch, float64(occ[ch]))
	}
	for k, se := range h.rateK {
		if se != nil {
			se.Append(epoch, float64(h.kFrames[k]))
		}
	}

	h.delivery.Append(epoch, rep.DeliveryRatio)
	h.scheduled.Append(epoch, float64(rep.FramesScheduled))
	h.fresh.Append(epoch, float64(rep.FreshDelivered))
	h.retx.Append(epoch, float64(rep.Retransmits))
	h.tags.Append(epoch, float64(rep.TagsActive))
	h.fxp.Append(epoch, float64(rep.FxpCycles))

	h.store.EndEpoch(epoch)
}
