package gateway

import (
	"fmt"
	"math"
	"math/rand/v2"

	"saiyan/internal/dsp"
	"saiyan/internal/flight"
	"saiyan/internal/mac"
)

// The control policy is the paper's one fixed feedback loop.
const (
	// statsWindow is the sliding-window length of the per-session PRR /
	// SNR / offset accounting.
	statsWindow = 16

	// hopThresholdPRR commands a channel hop when a session's windowed
	// PRR falls below it (and a better channel exists).
	hopThresholdPRR = 0.6

	// retryMax bounds retransmission commands per missing frame.
	retryMax = 3

	// Link-margin BER model (see berForRate): a rate K is usable when the
	// session SNR clears baseSNRReqDB + snrStepPerRateDB*(K-1), with
	// berSlopeDB dB of margin per decade of BER.
	baseSNRReqDB     = 25
	snrStepPerRateDB = 8
	berSlopeDB       = 4

	// recalThresholdDB re-anchors a session's calibration when its SNR
	// belief drifts this far from the anchor.
	recalThresholdDB = 3

	// minHopEvidence is how many windowed PRR samples a session needs
	// before the loop will command a channel hop on their strength.
	minHopEvidence = 4
)

// adapter picks downlink rates from the link-margin BER estimate: the
// fastest K in [1, 3] whose BER stays at or below 1e-3. Tags join at
// adapter.MinK.
var adapter = mac.RateAdapter{BERTarget: 1e-3, MinK: 1, MaxK: 3}

// fold replays one epoch's decode outcomes into the session registry, in
// schedule order (group by group, event by event) — never in worker
// completion order — so every counter and sliding window is a pure
// function of the seed.
func (g *Gateway) fold(plan *epochPlan) {
	rec := g.cfg.Flight
	if rec != nil {
		// Fresh trace lists for the epoch: control-loop and operator dumps
		// filter on what this epoch's fold saw, nothing older.
		for _, id := range g.sessionTags() {
			g.sessions[id].flightTraces = g.sessions[id].flightTraces[:0]
		}
	}
	for _, grp := range plan.groups {
		for ei, ev := range grp.capture.Events {
			s := g.sessions[ev.Tag]
			o := grp.outcomes[ei]
			isRetx := ev.Retransmitted
			var trace uint64
			if rec != nil {
				trace = flight.TraceID(plan.epoch, grp.channel, ev.Tag, ev.Seq)
				s.flightTraces = append(s.flightTraces, trace)
			}
			if !isRetx {
				s.scheduled++
				g.agg.framesScheduled++
			}
			if o.correct {
				s.prr.Push(1)
			} else {
				s.prr.Push(0)
			}
			if o.decoded && o.symbolErrs >= 0 {
				g.agg.symbolsChecked += uint64(len(ev.Want))
				g.agg.symbolErrs += uint64(o.symbolErrs)
			}
			foldSpan := func(d flight.Decision) {
				if rec == nil {
					return
				}
				rec.Append(0, flight.Span{
					Trace: trace, Seq: uint32(ev.Seq), Epoch: uint32(plan.epoch),
					Tag: uint16(ev.Tag), Channel: uint16(grp.channel),
					Stage: flight.StageFold, Decision: d,
					A: s.snrEst, B: float64(grp.k),
				})
			}
			fresh := false
			if o.correct {
				s.snr.Push(ev.RSSDBm - g.noiseFloorDB)
				s.offset.Push(math.Abs(float64(o.offset)))
				if s.markDelivered(ev.Seq) {
					fresh = true
					g.agg.framesDelivered++
					if isRetx {
						s.retxRecovered++
						g.agg.retxRecovered++
					}
					foldSpan(flight.Delivered)
				} else {
					g.agg.framesDuplicate++
					foldSpan(flight.Duplicate)
					rec.Trigger(flight.KindDedupMiss, plan.epoch, grp.channel, ev.Tag, ev.Seq, trace)
				}
			} else {
				s.markMissing(ev.Seq)
				foldSpan(flight.Missing)
				rec.Trigger(flight.KindDecodeFailure, plan.epoch, grp.channel, ev.Tag, ev.Seq, trace)
			}
			if g.frameHook != nil {
				errs := -1
				if o.decoded && o.symbolErrs >= 0 {
					errs = o.symbolErrs
				}
				g.frameHook(FrameEvent{
					Epoch:         plan.epoch,
					Channel:       grp.channel,
					Tag:           ev.Tag,
					RateK:         grp.k,
					Seq:           ev.Seq,
					Retransmit:    isRetx,
					Detected:      o.detected,
					Correct:       o.correct,
					Fresh:         fresh,
					SymbolErrs:    errs,
					OffsetSamples: o.offset,
					RSSDBm:        ev.RSSDBm,
				})
			}
		}
	}
	// Refresh each session's SNR belief from its delivery window.
	for _, id := range g.aliveIDs() {
		if s := g.sessions[id]; s.snr.Len() > 0 {
			s.snrEst = windowMean(&s.snr)
		}
	}
}

// berForRate extrapolates a session's link evidence to rate k: the margin
// of the SNR belief over the rate's requirement sets a model BER (halving
// the symbol alphabet spacing costs snrStepPerRateDB per K step), and a
// lossy delivery window vetoes anything above the floor rate — missing
// frames are the loudest evidence the link cannot support more bits per
// chirp.
func (g *Gateway) berForRate(s *session, k int) float64 {
	margin := s.snrEst - (baseSNRReqDB + snrStepPerRateDB*float64(k-1))
	ber := 0.5 * math.Pow(10, -margin/berSlopeDB)
	if ber > 0.5 {
		ber = 0.5
	}
	if k > adapter.MinK && s.prr.Len() > 0 {
		if loss := 1 - windowMean(&s.prr); loss > 0.05 {
			if ev := loss / 4; ev > ber {
				ber = ev
			}
		}
	}
	return ber
}

// downlinkPRR models the probability that a tag demodulates one feedback
// command given the session's SNR belief — the Saiyan downlink the whole
// loop rides on. Clamped away from 0 so a stale belief cannot deadlock the
// loop, and away from 1 so command delivery stays stochastic.
func (g *Gateway) downlinkPRR(s *session) float64 {
	p := 0.5 + (s.snrEst-20)/40
	return math.Min(0.98, math.Max(0.05, p))
}

// sendCommand frames one downlink command, round-trips it through the
// on-air bit codec (what the tag's decoder would parse), and draws its
// delivery from the epoch command RNG.
func (g *Gateway) sendCommand(rng *rand.Rand, s *session, cmd mac.Command) (bool, error) {
	bits, err := cmd.Bits()
	if err != nil {
		return false, fmt.Errorf("gateway: framing %v: %w", cmd.Op, err)
	}
	parsed, err := mac.ParseCommand(bits)
	if err != nil || parsed != cmd {
		return false, fmt.Errorf("gateway: command %v did not survive the bit codec: %v", cmd.Op, err)
	}
	g.agg.cmdsSent++
	if rng.Float64() >= g.downlinkPRR(s) {
		s.cmdsMissed++
		g.agg.cmdsMissed++
		g.met.cmdOutcome(cmd.Op, false)
		return false, nil
	}
	s.cmdsDelivered++
	g.agg.cmdsDelivered++
	g.met.cmdOutcome(cmd.Op, true)
	return true, nil
}

// addrOf maps a tag ID onto the 8-bit command address space.
func addrOf(id int) int { return id % mac.BroadcastAddr }

// bestChannel returns the least-attenuated ingest channel (ties to the
// lowest index).
func (g *Gateway) bestChannel() int {
	best := 0
	for ch := 1; ch < len(g.atten); ch++ {
		if g.atten[ch] < g.atten[best] {
			best = ch
		}
	}
	return best
}

// control runs the closed loop over every live session in ascending tag
// order: rate adaptation, channel hopping, threshold re-calibration, and
// retransmission of missing frames. Each decision synthesizes a real
// downlink mac.Command whose delivery is drawn from the epoch-keyed
// command RNG; delivered commands mutate the deployment model and
// therefore the next epoch's schedule. A framing failure (a command that
// cannot survive the bit codec) is a bug, not a lost packet — it
// propagates instead of being dropped.
func (g *Gateway) control(epoch int) error {
	if g.cfg.openLoop {
		return nil
	}
	rng := dsp.NewRand(g.cfg.Seed^commandSalt, uint64(epoch))
	rec := g.cfg.Flight
	for _, id := range g.aliveIDs() {
		t := g.tags[id]
		s := g.sessions[id]

		// Control decisions are tag-level: their flight spans attach to the
		// tag's most recent frame of the epoch, so a trace's chain reads
		// segment → decode → fold → control.
		var trace uint64
		if rec != nil && len(s.flightTraces) > 0 {
			trace = s.flightTraces[len(s.flightTraces)-1]
		}
		ctlSpan := func(d flight.Decision, a, b float64) {
			if trace == 0 {
				return
			}
			rec.Append(0, flight.Span{
				Trace: trace, Epoch: uint32(epoch), Tag: uint16(id),
				Channel: uint16(t.channel), Stage: flight.StageControl,
				Decision: d, A: a, B: b,
			})
		}

		// Rate adaptation: fastest K whose extrapolated BER meets the
		// target; fall back to the floor rate when none does.
		k, _, err := adapter.Pick(func(k int) (float64, error) {
			return g.berForRate(s, k), nil
		})
		if err != nil {
			return err
		}
		if k != t.rateK {
			ok, err := g.sendCommand(rng, s, mac.Command{Op: mac.OpSetRate, Addr: addrOf(id), Arg: k})
			if err != nil {
				return err
			}
			if ok {
				old := t.rateK
				t.rateK = k
				s.rateSwitches++
				g.agg.rateSwitches++
				ctlSpan(flight.RateChange, float64(old), float64(k))
			}
		} else {
			ctlSpan(flight.RateHold, windowMean(&s.prr), float64(k))
		}

		// Channel hop: a collapsed delivery window on a channel with a
		// better alternative moves the tag. A collapse that cannot hop
		// (already on the best channel, or the command was lost) is its
		// own anomaly.
		if s.prr.Len() >= minHopEvidence && windowMean(&s.prr) < hopThresholdPRR {
			hopped := false
			if best := g.bestChannel(); best != t.channel {
				ok, err := g.sendCommand(rng, s, mac.Command{Op: mac.OpHopChannel, Addr: addrOf(id), Arg: best})
				if err != nil {
					return err
				}
				if ok {
					oldCh := t.channel
					t.channel = best
					s.hops++
					g.agg.hops++
					ctlSpan(flight.Hop, float64(oldCh), float64(best))
					rec.Trigger(flight.KindHop, epoch, oldCh, id, 0, s.flightTraces...)
					hopped = true
				}
			}
			if !hopped {
				rec.Trigger(flight.KindPRRCollapse, epoch, t.channel, id, 0, s.flightTraces...)
			}
		}

		// Re-calibration: the SNR belief drifted away from the anchor the
		// tag's thresholds (and the channel's hunt calibration) assume.
		if math.Abs(s.snrEst-s.calAnchorSNR) > recalThresholdDB {
			rss := s.snrEst + g.noiseFloorDB
			arg := int(math.Round(-rss))
			arg = int(math.Min(255, math.Max(0, float64(arg))))
			ok, err := g.sendCommand(rng, s, mac.Command{Op: mac.OpRecalibrate, Addr: addrOf(id), Arg: arg})
			if err != nil {
				return err
			}
			if ok {
				prev := s.calAnchorSNR
				s.calAnchorSNR = s.snrEst
				s.recals++
				g.agg.recals++
				ctlSpan(flight.Recalibrate, s.snrEst, prev)
			}
		}

		// Retransmission: ask for every still-missing frame with budget
		// left; a delivered command schedules the frame on the next epoch.
		kept := s.missing[:0]
		retxNow := 0
		var firstRetx uint64
		for _, m := range s.missing {
			if m.attempts >= retryMax {
				g.met.retxAbandon()
				ctlSpan(flight.RetxAbandoned, float64(m.seq), float64(m.attempts))
				continue // budget exhausted: the frame is abandoned
			}
			m.attempts++
			g.met.retxAttempt()
			ok, err := g.sendCommand(rng, s, mac.Command{Op: mac.OpRetransmit, Addr: addrOf(id), Arg: int(m.seq % 256)})
			if err != nil {
				return err
			}
			if ok {
				t.retxNext = append(t.retxNext, m.seq)
				s.retxScheduled++
				g.agg.retxScheduled++
				ctlSpan(flight.RetxScheduled, float64(m.seq), float64(m.attempts))
				if retxNow == 0 {
					firstRetx = m.seq
				}
				retxNow++
			}
			kept = append(kept, m)
		}
		s.missing = kept
		if retxNow > 0 {
			rec.Trigger(flight.KindRetx, epoch, t.channel, id, firstRetx, s.flightTraces...)
		}
	}
	return nil
}
