package gateway

import "saiyan/internal/ring"

// windowMean averages a link window. Pushes and reads happen in
// deterministic (schedule) order, and the sum runs in storage order, not
// oldest first: once a window wraps, the order changes the float sum, and
// the published means must not move a byte.
func windowMean(w *ring.Ring[float64]) float64 {
	if w.Len() == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < w.Len(); i++ {
		sum += w.Stored(i)
	}
	return sum / float64(w.Len())
}

// session is the gateway's per-tag link state: dedup set, sliding-window
// link accounting, and the adaptation counters the control loop maintains.
type session struct {
	tag    int
	active bool // the tag is still part of the deployment

	// delivered is the frame dedup set: per-tag payload sequence numbers
	// decoded error-free at least once.
	delivered map[uint64]bool

	// missing holds sequence numbers scheduled but not yet delivered, in
	// first-miss order, with the number of retransmission commands spent.
	missing []retxState

	// Sliding windows over the most recent scheduled frames (prr) and the
	// most recent deliveries (snr, offset).
	prr    ring.Ring[float64]
	snr    ring.Ring[float64]
	offset ring.Ring[float64]

	// snrEst is the control loop's current link-quality belief: seeded from
	// the link budget when the tag joins, then tracking the delivery
	// window's mean. calAnchorSNR is the SNR at which the tag's thresholds
	// were last calibrated; drifting away from it triggers OpRecalibrate.
	snrEst       float64
	calAnchorSNR float64

	// lastChannel / lastRateK freeze the tag's final assignment when it
	// leaves the deployment, so departed sessions still snapshot usefully.
	lastChannel int
	lastRateK   int

	// flightTraces holds this tag's flight trace IDs from the most recent
	// epoch's fold, in schedule order — the trace filter control-loop and
	// operator anomaly dumps use. Empty when no recorder is attached.
	flightTraces []uint64

	// Counters (monotonic).
	scheduled     uint64 // unique frames first-scheduled for this tag
	deliveredN    uint64 // unique frames delivered error-free
	duplicates    uint64 // correct decodes of an already-delivered frame
	retxScheduled uint64 // retransmissions scheduled on later epochs
	retxRecovered uint64 // unique frames recovered by a retransmission
	rateSwitches  uint64
	hops          uint64
	recals        uint64
	cmdsDelivered uint64
	cmdsMissed    uint64
}

// retxState tracks one missing frame through the retransmission loop.
type retxState struct {
	seq      uint64
	attempts int // retransmission commands issued for it
}

func newSession(tag, window int, snrEst float64) *session {
	return &session{
		tag:          tag,
		active:       true,
		delivered:    make(map[uint64]bool),
		prr:          ring.New[float64](window),
		snr:          ring.New[float64](window),
		offset:       ring.New[float64](window),
		snrEst:       snrEst,
		calAnchorSNR: snrEst,
	}
}

// missingIndex finds seq in the missing list, or -1.
func (s *session) missingIndex(seq uint64) int {
	for i := range s.missing {
		if s.missing[i].seq == seq {
			return i
		}
	}
	return -1
}

// markMissing records a scheduled-but-undelivered frame (idempotent).
func (s *session) markMissing(seq uint64) {
	if s.delivered[seq] || s.missingIndex(seq) >= 0 {
		return
	}
	s.missing = append(s.missing, retxState{seq: seq})
}

// markDelivered folds one error-free decode into the dedup set, reporting
// whether the frame was new. A recovered frame leaves the missing list.
func (s *session) markDelivered(seq uint64) (fresh bool) {
	if s.delivered[seq] {
		s.duplicates++
		return false
	}
	s.delivered[seq] = true
	s.deliveredN++
	if i := s.missingIndex(seq); i >= 0 {
		s.missing = append(s.missing[:i], s.missing[i+1:]...)
	}
	return true
}

// SessionSnapshot is the externally visible state of one tag's session.
// JSON field names are part of the wire protocol's stable metrics schema.
type SessionSnapshot struct {
	Tag     int  `json:"tag"`
	Channel int  `json:"channel"`
	RateK   int  `json:"rate_k"`
	Active  bool `json:"active"`

	Scheduled  uint64 `json:"scheduled"`  // unique frames scheduled
	Delivered  uint64 `json:"delivered"`  // unique frames delivered error-free
	Duplicates uint64 `json:"duplicates"` // correct decodes beyond the first
	Pending    int    `json:"pending"`    // frames still awaiting retransmission

	RetransmitsScheduled uint64 `json:"retransmits_scheduled"`
	RetransmitsRecovered uint64 `json:"retransmits_recovered"`

	// Sliding-window link accounting.
	WindowPRR     float64 `json:"window_prr"`      // delivery ratio over the recent schedule window
	SNREstDB      float64 `json:"snr_est_db"`      // control loop's current SNR belief
	MeanAbsOffset float64 `json:"mean_abs_offset"` // mean |detection offset| in sampler samples

	RateSwitches   uint64 `json:"rate_switches"`
	Hops           uint64 `json:"hops"`
	Recalibrations uint64 `json:"recalibrations"`
	CmdsDelivered  uint64 `json:"cmds_delivered"`
	CmdsMissed     uint64 `json:"cmds_missed"`
}

// snapshotSession renders one session against its current tag assignment
// (channel and rate come from the deployment model; a departed tag reports
// its last assignment).
func (g *Gateway) snapshotSession(s *session) SessionSnapshot {
	snap := SessionSnapshot{
		Tag:                  s.tag,
		Active:               s.active,
		Scheduled:            s.scheduled,
		Delivered:            s.deliveredN,
		Duplicates:           s.duplicates,
		Pending:              len(s.missing),
		RetransmitsScheduled: s.retxScheduled,
		RetransmitsRecovered: s.retxRecovered,
		WindowPRR:            windowMean(&s.prr),
		SNREstDB:             s.snrEst,
		MeanAbsOffset:        windowMean(&s.offset),
		RateSwitches:         s.rateSwitches,
		Hops:                 s.hops,
		Recalibrations:       s.recals,
		CmdsDelivered:        s.cmdsDelivered,
		CmdsMissed:           s.cmdsMissed,
	}
	if t, ok := g.tags[s.tag]; ok {
		snap.Channel, snap.RateK = t.channel, t.rateK
	} else {
		snap.Channel, snap.RateK = s.lastChannel, s.lastRateK
	}
	return snap
}
