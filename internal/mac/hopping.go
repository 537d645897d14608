package mac

import (
	"fmt"
	"math/rand/v2"
)

// ChannelQuality gives the uplink PRR on a channel; the jammed channel has
// a much lower value (Section 5.3.2 jams 433 MHz with an SDR 3 m from the
// receiver).
type ChannelQuality func(channelHz float64) float64

// HoppingConfig describes the channel-hopping case study.
type HoppingConfig struct {
	HomeHz   float64 // initial (jammed) channel, paper: 434 MHz band jammed at 433 MHz
	AltHz    float64 // hop target, paper: 434.5 MHz
	Rounds   int     // measurement rounds (each yields one PRR sample)
	PerRound int     // packets per round
	// HopCommandPRR is the probability the tag demodulates the hop
	// command — Saiyan's contribution; 0 disables hopping entirely.
	HopCommandPRR float64
	// HopThreshold: the AP issues a hop command when a round's PRR falls
	// below this.
	HopThreshold float64
}

// DefaultHoppingConfig mirrors the paper's setup.
func DefaultHoppingConfig() HoppingConfig {
	return HoppingConfig{
		HomeHz:        433.0e6,
		AltHz:         434.5e6,
		Rounds:        100,
		PerRound:      40,
		HopCommandPRR: 0.95,
		HopThreshold:  0.6,
	}
}

// HoppingResult carries the per-round PRR samples before considering the
// hop and for the run where hopping is enabled — the two CDFs of Figure 27.
type HoppingResult struct {
	WithoutHop []float64 // PRR per round, tag pinned to the jammed channel
	WithHop    []float64 // PRR per round, AP commands a hop when quality drops
	HopRound   int       // round at which the tag hopped (-1 if never)
}

// SimulateHopping runs the case study: the tag uplinks on the home channel;
// the AP monitors per-round PRR and, below the threshold, uses the downlink
// to command a channel switch. Without Saiyan the command never arrives and
// the tag stays jammed.
func SimulateHopping(cfg HoppingConfig, quality ChannelQuality, rng *rand.Rand) (HoppingResult, error) {
	if cfg.Rounds < 1 || cfg.PerRound < 1 {
		return HoppingResult{}, fmt.Errorf("mac: invalid hopping config: %+v", cfg)
	}
	res := HoppingResult{HopRound: -1}
	measure := func(ch float64) float64 {
		prr := quality(ch)
		ok := 0
		for i := 0; i < cfg.PerRound; i++ {
			if rng.Float64() < prr {
				ok++
			}
		}
		return float64(ok) / float64(cfg.PerRound)
	}
	current := cfg.HomeHz
	for r := 0; r < cfg.Rounds; r++ {
		res.WithoutHop = append(res.WithoutHop, measure(cfg.HomeHz))
		sample := measure(current)
		res.WithHop = append(res.WithHop, sample)
		if current == cfg.HomeHz && sample < cfg.HopThreshold {
			// AP issues the hop command; the tag must demodulate it.
			if rng.Float64() < cfg.HopCommandPRR {
				current = cfg.AltHz
				res.HopRound = r
			}
		}
	}
	return res, nil
}

// RateAdapter picks the fastest downlink coding rate (bits per chirp) whose
// measured BER stays within the target — the rate-adaptation loop the
// feedback channel enables (Section 1).
type RateAdapter struct {
	BERTarget float64
	MinK      int
	MaxK      int
}

// Pick evaluates berOf(K) from the fastest rate downward and returns the
// first K meeting the target, falling back to MinK when none does. The
// returned bool reports whether the target was met.
func (r RateAdapter) Pick(berOf func(k int) (float64, error)) (int, bool, error) {
	if r.MinK < 1 || r.MaxK < r.MinK {
		return 0, false, fmt.Errorf("mac: invalid rate adapter bounds [%d, %d]", r.MinK, r.MaxK)
	}
	for k := r.MaxK; k >= r.MinK; k-- {
		ber, err := berOf(k)
		if err != nil {
			return 0, false, err
		}
		if ber <= r.BERTarget {
			return k, true, nil
		}
	}
	return r.MinK, false, nil
}
