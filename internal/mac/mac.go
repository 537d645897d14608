// Package mac implements the MAC-layer behaviors the Saiyan feedback loop
// enables (Sections 1, 4.4 and 5.3): on-demand packet retransmission
// through downlink ACK/NACK, slotted-ALOHA coordination of multiple tags,
// channel hopping away from jammed bands, and data-rate adaptation.
//
// The package is deliberately independent of the signal-level simulator:
// link behavior enters through small probability interfaces so the MAC
// logic can be driven either by the full PHY simulation (the experiments
// do this) or by analytic link models (the unit tests do this).
package mac

import (
	"math/rand/v2"
)

// LinkModel abstracts the PHY for MAC simulations.
type LinkModel interface {
	// UplinkPRR is the probability that one tag uplink packet is received
	// by the access point.
	UplinkPRR() float64
	// DownlinkPRR is the probability that the tag demodulates one
	// feedback packet from the access point (this is what Saiyan adds).
	DownlinkPRR() float64
}

// StaticLink is a LinkModel with fixed probabilities.
type StaticLink struct {
	Up, Down float64
}

// UplinkPRR implements LinkModel.
func (s StaticLink) UplinkPRR() float64 { return s.Up }

// DownlinkPRR implements LinkModel.
func (s StaticLink) DownlinkPRR() float64 { return s.Down }

// RetransmissionResult reports the Figure 26 experiment: packet reception
// ratio as a function of the retransmission budget.
type RetransmissionResult struct {
	MaxRetries int
	PRR        []float64 // PRR[k] = reception ratio with k retransmissions allowed
	Attempts   float64   // mean uplink transmissions per delivered packet
}

// SimulateRetransmission runs nPackets through the ACK feedback loop: the
// tag transmits; on loss the access point requests a retransmission, which
// happens only if the tag demodulates the request (the paper's core
// argument — without Saiyan, DownlinkPRR is 0 and retransmissions never
// happen on demand).
func SimulateRetransmission(link LinkModel, nPackets, maxRetries int, rng *rand.Rand) RetransmissionResult {
	if maxRetries < 0 {
		maxRetries = 0
	}
	res := RetransmissionResult{MaxRetries: maxRetries, PRR: make([]float64, maxRetries+1)}
	totalAttempts := 0
	delivered := 0
	for p := 0; p < nPackets; p++ {
		deliveredAt := -1
		for attempt := 0; attempt <= maxRetries; attempt++ {
			totalAttempts++
			if rng.Float64() < link.UplinkPRR() {
				deliveredAt = attempt
				break
			}
			// Lost: the AP asks for a retransmission. If the tag cannot
			// demodulate the request, the loop ends here.
			if attempt < maxRetries && rng.Float64() >= link.DownlinkPRR() {
				break
			}
		}
		if deliveredAt >= 0 {
			delivered++
			for k := deliveredAt; k <= maxRetries; k++ {
				res.PRR[k]++
			}
		}
	}
	for k := range res.PRR {
		res.PRR[k] /= float64(nPackets)
	}
	if delivered > 0 {
		res.Attempts = float64(totalAttempts) / float64(delivered)
	}
	return res
}
