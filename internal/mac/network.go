package mac

import (
	"fmt"
	"math/rand/v2"
)

// Network simulates an access point serving a field of Saiyan-equipped
// backscatter tags (Section 4.4 and Figure 15): uplink data packets in
// slotted-ALOHA rounds, per-tag unicast feedback (ACK / retransmission
// requests), and broadcast commands that every in-range tag demodulates
// independently.
type Network struct {
	Tags  []*Tag
	Slots int // ALOHA slots per round

	rng *rand.Rand
}

// Tag is one backscatter node's MAC state.
type Tag struct {
	Addr        int
	UplinkPRR   float64 // per-packet uplink delivery probability
	DownlinkPRR float64 // per-command demodulation probability (Saiyan)

	SensorOn bool
	RateK    int

	// Stats.
	Sent        int
	Delivered   int
	Retransmits int
	CmdsDecoded int
	CmdsMissed  int
}

// NewNetwork builds a network with the given ALOHA slot count.
func NewNetwork(slots int, rng *rand.Rand) (*Network, error) {
	if slots < 1 {
		return nil, fmt.Errorf("mac: network needs >= 1 slot, got %d", slots)
	}
	if rng == nil {
		return nil, fmt.Errorf("mac: network needs a PRNG")
	}
	return &Network{Slots: slots, rng: rng}, nil
}

// AddTag registers a tag; addresses must be unique and below
// BroadcastAddr.
func (n *Network) AddTag(addr int, uplinkPRR, downlinkPRR float64) (*Tag, error) {
	if addr < 0 || addr >= BroadcastAddr {
		return nil, fmt.Errorf("mac: tag address %d outside [0, %d)", addr, BroadcastAddr)
	}
	for _, t := range n.Tags {
		if t.Addr == addr {
			return nil, fmt.Errorf("mac: duplicate tag address %d", addr)
		}
	}
	t := &Tag{Addr: addr, UplinkPRR: uplinkPRR, DownlinkPRR: downlinkPRR, SensorOn: true, RateK: 1}
	n.Tags = append(n.Tags, t)
	return t, nil
}

// RoundResult summarizes one uplink round.
type RoundResult struct {
	Transmitted int // tags that sent a packet this round
	Collided    int // packets lost to slot collisions
	LostOnAir   int // packets lost to the channel
	Delivered   int // packets the AP received
	Recovered   int // packets recovered via on-demand retransmission
}

// RunRound plays one data-collection round: every sensing tag picks a
// random slot (collisions destroy all packets in the slot), surviving
// packets face the uplink channel, and for each loss the AP issues a
// unicast retransmission request that succeeds only if the tag demodulates
// it — the Saiyan feedback loop. Retransmissions go out in a dedicated
// follow-up slot per tag (the AP schedules them, so they cannot collide).
func (n *Network) RunRound(maxRetries int) RoundResult {
	var res RoundResult
	slotOf := make(map[int][]*Tag, n.Slots)
	for _, t := range n.Tags {
		if !t.SensorOn {
			continue
		}
		res.Transmitted++
		t.Sent++
		s := n.rng.IntN(n.Slots)
		slotOf[s] = append(slotOf[s], t)
	}
	for _, tags := range slotOf {
		collided := len(tags) > 1
		for _, t := range tags {
			if collided {
				res.Collided++
				// Collisions are losses too: recovery goes through the
				// same feedback loop.
				if n.recover(t, maxRetries) {
					res.Recovered++
					res.Delivered++
					t.Delivered++
				}
				continue
			}
			if n.rng.Float64() < t.UplinkPRR {
				res.Delivered++
				t.Delivered++
				continue
			}
			res.LostOnAir++
			if n.recover(t, maxRetries) {
				res.Recovered++
				res.Delivered++
				t.Delivered++
			}
		}
	}
	return res
}

// recover plays the on-demand retransmission loop for one lost packet.
func (n *Network) recover(t *Tag, maxRetries int) bool {
	for attempt := 0; attempt < maxRetries; attempt++ {
		// The AP's retransmission request must be demodulated.
		if n.rng.Float64() >= t.DownlinkPRR {
			t.CmdsMissed++
			return false
		}
		t.CmdsDecoded++
		t.Retransmits++
		if n.rng.Float64() < t.UplinkPRR {
			return true
		}
	}
	return false
}

// Broadcast delivers a command to every tag that can demodulate it and
// applies its effect. It returns how many tags acted on the command.
func (n *Network) Broadcast(cmd Command) (int, error) {
	if err := cmd.Validate(); err != nil {
		return 0, err
	}
	acted := 0
	for _, t := range n.Tags {
		if cmd.Addr != BroadcastAddr && cmd.Addr != t.Addr {
			continue
		}
		if n.rng.Float64() >= t.DownlinkPRR {
			t.CmdsMissed++
			continue
		}
		t.CmdsDecoded++
		n.apply(t, cmd)
		acted++
	}
	return acted, nil
}

// apply executes a command's effect on a tag.
func (n *Network) apply(t *Tag, cmd Command) {
	switch cmd.Op {
	case OpSensorOn:
		t.SensorOn = true
	case OpSensorOff:
		t.SensorOn = false
	case OpSetRate:
		if cmd.Arg >= 1 && cmd.Arg <= 12 {
			t.RateK = cmd.Arg
		}
	}
	// OpAck / OpRetransmit / OpHopChannel act at packet granularity and
	// are handled by the round loop and the hopping simulator;
	// OpRecalibrate rebuilds tag-local comparator thresholds, which this
	// probability-level model does not carry (the gateway subsystem models
	// its effect on the session's calibration anchor).
}

// DeliveryRate returns the network-wide fraction of sent packets that the
// AP eventually received.
func (n *Network) DeliveryRate() float64 {
	sent, delivered := 0, 0
	for _, t := range n.Tags {
		sent += t.Sent
		delivered += t.Delivered
	}
	if sent == 0 {
		return 1
	}
	return float64(delivered) / float64(sent)
}
