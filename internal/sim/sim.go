// Package sim runs end-to-end link experiments: it wires the LoRa
// transmitter model, the radio channel, and the Saiyan demodulator together
// and measures the paper's three metrics — BER, throughput, and
// demodulation/detection range (Section 5 setup).
package sim

import (
	"math"

	"saiyan/internal/core"
	"saiyan/internal/dsp"
	"saiyan/internal/lora"
	"saiyan/internal/radio"
)

// Link couples a demodulator configuration with a link budget. Construct
// with NewLink; methods are safe to call sequentially (each measurement
// builds its own demodulator, because calibration is per distance).
type Link struct {
	Config core.Config
	Budget radio.LinkBudget
	Seed   uint64
}

// NewLink builds a link experiment harness.
func NewLink(cfg core.Config, budget radio.LinkBudget, seed uint64) *Link {
	return &Link{Config: cfg, Budget: budget, Seed: seed}
}

// Result summarizes a BER measurement.
type Result struct {
	Distance   float64
	RSSDBm     float64
	Symbols    int
	SymbolErrs int
	Bits       int
	BitErrs    int
}

// BER returns the measured bit error rate.
func (r Result) BER() float64 {
	if r.Bits == 0 {
		return 0
	}
	return float64(r.BitErrs) / float64(r.Bits)
}

// demodAt builds and calibrates a demodulator for one distance.
func (l *Link) demodAt(distanceM float64) (*core.Demodulator, float64, error) {
	d, err := core.New(l.Config)
	if err != nil {
		return nil, 0, err
	}
	rss := l.Budget.RSSDBm(distanceM)
	rng := dsp.NewRand(l.Seed^0x9e3779b97f4a7c15, math.Float64bits(distanceM))
	d.Calibrate(rss, rng)
	return d, rss, nil
}

// MeasureBER transmits nSymbols random downlink symbols at the given
// distance with synchronized reception (the paper measures payload BER the
// same way) and counts bit errors.
func (l *Link) MeasureBER(distanceM float64, nSymbols int) (Result, error) {
	return l.MeasureBERCoded(distanceM, nSymbols, false)
}

// MeasureBERCoded is MeasureBER with optional Gray mapping between data
// values and on-air symbols. Gray coding turns the decoder's dominant error
// (a slip to the adjacent peak position) into a single bit error.
func (l *Link) MeasureBERCoded(distanceM float64, nSymbols int, useGray bool) (Result, error) {
	d, rss, err := l.demodAt(distanceM)
	if err != nil {
		return Result{}, err
	}
	p := l.Config.Params
	rng := dsp.NewRand(l.Seed, math.Float64bits(distanceM))
	res := Result{Distance: distanceM, RSSDBm: rss}
	const perBatch = 16
	want := make([]int, perBatch)
	var traj []float64
	fsSim := d.SimRateHz()
	var sym []float64
	air := make([]int, perBatch)
	for res.Symbols < nSymbols {
		traj = traj[:0]
		for i := 0; i < perBatch; i++ {
			want[i] = rng.IntN(p.AlphabetSize())
			air[i] = want[i]
			if useGray {
				air[i] = lora.GrayEncode(want[i])
			}
			sym = p.FreqTrajectory(sym[:0], p.SymbolValue(air[i]), fsSim)
			traj = append(traj, sym...)
		}
		rx, err := d.DemodulatePayload(traj, rss, perBatch, rng)
		if err != nil {
			return res, err
		}
		got := rx
		if useGray {
			got = lora.DecodeSymbols(true, rx)
		}
		for i := range want {
			res.Symbols++
			if got[i] != want[i] {
				res.SymbolErrs++
			}
		}
		be, bt := lora.CountBitErrors(want, got, p.K)
		res.BitErrs += be
		res.Bits += bt
	}
	return res, nil
}

// ThroughputResult reports goodput the way the paper defines it
// ("the amount of received data correctly decoded within one second"):
// correctly decoded payload bits per second of payload airtime, accounting
// for packets whose preamble the tag misses entirely. At CR=5, SF=7,
// BW=500 kHz the ceiling is the 19.5 kbps of Figure 16.
type ThroughputResult struct {
	Distance    float64
	BitsPerSec  float64
	PRR         float64 // fraction of frames detected AND fully correct
	DetectRate  float64 // fraction of frames whose preamble was found
	FramesSent  int
	PayloadBits int
	CorrectBits int
}

// MeasureThroughput sends nFrames full frames (preamble + sync + payload of
// lora.DefaultPayloadSymbols symbols) and measures goodput.
func (l *Link) MeasureThroughput(distanceM float64, nFrames int) (ThroughputResult, error) {
	d, rss, err := l.demodAt(distanceM)
	if err != nil {
		return ThroughputResult{}, err
	}
	p := l.Config.Params
	rng := dsp.NewRand(l.Seed+1, math.Float64bits(distanceM))
	out := ThroughputResult{Distance: distanceM, FramesSent: nFrames}
	payload := make([]int, lora.DefaultPayloadSymbols)
	var airtime float64
	for f := 0; f < nFrames; f++ {
		for i := range payload {
			payload[i] = rng.IntN(p.AlphabetSize())
		}
		frame, err := lora.NewFrame(p, payload)
		if err != nil {
			return out, err
		}
		airtime += float64(len(payload)) * p.SymbolDuration()
		got, detected, err := d.ProcessFrame(frame, rss, rng)
		if err != nil {
			return out, err
		}
		out.PayloadBits += len(payload) * p.K
		if !detected {
			continue
		}
		out.DetectRate++
		be, bt := lora.CountBitErrors(payload, got, p.K)
		out.CorrectBits += bt - be
		if be == 0 {
			out.PRR++
		}
	}
	out.DetectRate /= float64(nFrames)
	out.PRR /= float64(nFrames)
	if airtime > 0 {
		out.BitsPerSec = float64(out.CorrectBits) / airtime
	}
	return out, nil
}

// RangeOptions tunes the bisection searches.
type RangeOptions struct {
	BERTarget  float64 // demodulation range criterion (paper: 1e-3)
	Symbols    int     // Monte-Carlo symbols per probe
	MinM, MaxM float64 // search bracket in meters
	Tolerance  float64 // relative distance resolution
}

// DefaultRangeOptions matches the paper's 1 permille criterion.
func DefaultRangeOptions() RangeOptions {
	return RangeOptions{BERTarget: 1e-3, Symbols: 1500, MinM: 1, MaxM: 800, Tolerance: 0.02}
}

// DemodulationRange finds the maximum distance at which BER stays at or
// below the target, by geometric bisection on the monotone BER-distance
// curve.
func (l *Link) DemodulationRange(opts RangeOptions) (float64, error) {
	if opts.BERTarget <= 0 {
		opts = DefaultRangeOptions()
	}
	ok := func(d float64) (bool, error) {
		r, err := l.MeasureBER(d, opts.Symbols)
		if err != nil {
			return false, err
		}
		return r.BER() <= opts.BERTarget, nil
	}
	return BisectRange(ok, opts.MinM, opts.MaxM, opts.Tolerance)
}

// DetectionProbability measures the fraction of frames whose preamble the
// tag detects at the given distance.
func (l *Link) DetectionProbability(distanceM float64, trials int) (float64, error) {
	d, rss, err := l.demodAt(distanceM)
	if err != nil {
		return 0, err
	}
	p := l.Config.Params
	rng := dsp.NewRand(l.Seed+2, math.Float64bits(distanceM))
	frame, err := lora.NewFrame(p, make([]int, 8))
	if err != nil {
		return 0, err
	}
	hits := 0
	for i := 0; i < trials; i++ {
		_, detected, err := d.ProcessFrame(frame, rss, rng)
		if err != nil {
			return 0, err
		}
		if detected {
			hits++
		}
	}
	return float64(hits) / float64(trials), nil
}

// DetectionRange finds the maximum distance at which the preamble detection
// probability stays at or above probTarget.
func (l *Link) DetectionRange(probTarget float64, trials int, opts RangeOptions) (float64, error) {
	if opts.MaxM == 0 {
		opts = DefaultRangeOptions()
	}
	ok := func(d float64) (bool, error) {
		p, err := l.DetectionProbability(d, trials)
		if err != nil {
			return false, err
		}
		return p >= probTarget, nil
	}
	return BisectRange(ok, opts.MinM, opts.MaxM, opts.Tolerance)
}

// BisectRange returns the largest distance in [minM, maxM] satisfying ok,
// assuming ok is monotone (true near, false far). It returns 0 when even
// minM fails and maxM when the whole bracket passes.
func BisectRange(ok func(float64) (bool, error), minM, maxM, tol float64) (float64, error) {
	if tol <= 0 {
		tol = 0.02
	}
	pass, err := ok(minM)
	if err != nil {
		return 0, err
	}
	if !pass {
		return 0, nil
	}
	pass, err = ok(maxM)
	if err != nil {
		return 0, err
	}
	if pass {
		return maxM, nil
	}
	lo, hi := minM, maxM
	for hi/lo > 1+tol {
		mid := math.Sqrt(lo * hi)
		pass, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
