package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"

	"saiyan"
)

// runWave dumps simulated waveforms as CSV for plotting: a chirp's
// frequency trajectory, its SAW-transformed envelope and the comparator's
// binary output (the Figure 6 waveforms), a full frame's envelope (the
// Figure 8 decode walk), or the SAW filter's response.
func runWave(args []string, _ *globals) error { return dumpWave(args, os.Stdout, os.Stderr) }

// dumpWave writes the CSV that args select to stdout and a one-line
// summary of the symbol or frame to stderr.
func dumpWave(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("wave", flag.ContinueOnError)
	wave := fs.String("wave", "symbol", "what to dump: symbol | frame | saw")
	sf := fs.Int("sf", 7, "spreading factor (7-12)")
	bw := fs.Float64("bw", 500, "bandwidth in kHz (125/250/500)")
	k := fs.Int("k", 2, "bits per chirp (paper CR, 1-5)")
	symbol := fs.Int("symbol", 1, "downlink symbol to render (symbol wave)")
	mode := fs.String("mode", "vanilla", "demodulator chain: vanilla | shift | full")
	dist := fs.Float64("dist", 50, "link distance in meters")
	seed := fs.Uint64("seed", 0, "noise seed; 0 renders noise-free")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := saiyan.DefaultConfig()
	cfg.Params.SF, cfg.Params.BandwidthHz, cfg.Params.K = *sf, *bw*1000, *k
	switch *mode {
	case "vanilla":
		cfg.Mode = saiyan.ModeVanilla
	case "shift":
		cfg.Mode = saiyan.ModeFreqShift
	case "full":
		cfg.Mode = saiyan.ModeFull
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	switch *wave {
	case "saw":
		saw := saiyan.PaperSAW()
		fmt.Fprintln(stdout, "freq_mhz,response_db")
		for f := 428.0; f <= 440.0; f += 0.01 {
			fmt.Fprintf(stdout, "%.3f,%.3f\n", f, saw.ResponseDB(f*1e6))
		}
		return nil
	case "symbol", "frame":
	default:
		return fmt.Errorf("unknown wave %q (symbol | frame | saw)", *wave)
	}

	demod, err := saiyan.NewDemodulator(cfg)
	if err != nil {
		return err
	}
	p := cfg.Params
	if *wave == "symbol" && (*symbol < 0 || *symbol >= p.AlphabetSize()) {
		return fmt.Errorf("symbol %d outside alphabet [0, %d)", *symbol, p.AlphabetSize())
	}
	rss := saiyan.DefaultLinkBudget().RSSDBm(*dist)
	demod.Calibrate(rss, saiyan.NewRand(7, 7))
	var rng *rand.Rand
	if *seed != 0 {
		rng = saiyan.NewRand(*seed, 1)
	}

	if *wave == "frame" {
		payload := make([]int, 8)
		for i := range payload {
			payload[i] = i % p.AlphabetSize()
		}
		frame, err := saiyan.NewFrame(p, payload)
		if err != nil {
			return err
		}
		env := demod.RenderEnvelope(nil, frame.FreqTrajectory(nil, demod.SimRateHz()), rss, rng)
		fmt.Fprintln(stdout, "t_ms,envelope")
		for i, v := range env {
			fmt.Fprintf(stdout, "%.4f,%.6g\n", float64(i)/demod.SamplerRateHz()*1e3, v)
		}
		fmt.Fprintf(stderr, "frame: 10 preamble + 2.25 sync + %d payload symbols at %s\n", len(payload), p)
		return nil
	}

	traj := p.FreqTrajectory(nil, p.SymbolValue(*symbol), demod.SimRateHz())
	env := demod.RenderEnvelope(nil, traj, rss, rng)
	bits := demod.Thresholds().Quantize(nil, env)
	fmt.Fprintln(stdout, "t_us,freq_khz,envelope,comparator")
	step := int(demod.SimRateHz() / demod.SamplerRateHz())
	for i, v := range env {
		f, b := 0.0, 0
		if simIdx := step/2 + i*step; simIdx < len(traj) {
			f = traj[simIdx] / 1000
		}
		if bits[i] {
			b = 1
		}
		fmt.Fprintf(stdout, "%.2f,%.2f,%.6g,%d\n", float64(i)/demod.SamplerRateHz()*1e6, f, v, b)
	}
	fmt.Fprintf(stderr, "symbol %d (%s), peak theory at %.3f of the window\n",
		*symbol, p, p.PeakFraction(p.SymbolValue(*symbol)))
	return nil
}
