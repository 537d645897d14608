package experiments

import (
	"fmt"

	"saiyan/internal/analog"
	"saiyan/internal/core"
	"saiyan/internal/dsp"
	"saiyan/internal/lora"
)

// Front-end experiments: Figures 3, 5, 6, 7, 8 and 10 characterize the
// frequency-amplitude transformation, the comparator, the decoding walk
// and the cyclic-frequency-shifting gain.

func init() {
	register(Experiment{
		ID:          "fig3",
		Title:       "LoRa symbols before/after frequency-amplitude transformation",
		PaperResult: "each symbol's amplitude peak lands where its chirp tops the band",
		Run:         runFig3,
	})
	register(Experiment{
		ID:          "fig5",
		Title:       "SAW filter amplitude-frequency response",
		PaperResult: "25/9.5/7.2 dB swing over the last 500/250/125 kHz below 434 MHz; 10 dB insertion loss",
		Run:         runFig5,
	})
	register(Experiment{
		ID:          "fig6",
		Title:       "SAW input/output waveforms for symbols 00,01,10,11",
		PaperResult: "output amplitude peaks at distinct times, tracking input frequency",
		Run:         runFig6,
	})
	register(Experiment{
		ID:          "fig7",
		Title:       "single- vs double-threshold comparator",
		PaperResult: "U_H alone misses peaks, U_L alone false-fires, double threshold yields one stable run",
		Run:         runFig7,
	})
	register(Experiment{
		ID:          "fig8",
		Title:       "decoding walk-through of a LoRa packet",
		PaperResult: "preamble detected, 2.25 sync symbols skipped, payload recovered",
		Run:         runFig8,
	})
	register(Experiment{
		ID:          "fig10",
		Title:       "spectrum with/without cyclic-frequency shifting",
		PaperResult: "~11 dB SNR gain (24 chirps, SF8, BW 500 kHz)",
		Run:         runFig10,
	})
}

func runFig3(o Options) (*Table, error) {
	p := lora.Params{SF: 7, BandwidthHz: lora.Bandwidth500k, K: 2, CarrierHz: lora.DefaultCarrierHz}
	t := &Table{
		ID:     "fig3",
		Title:  "symbol chirps and their transformed amplitude peaks",
		Header: []string{"symbol", "f0 (kHz)", "peak position (fraction of T)"},
	}
	for s := 0; s < p.AlphabetSize(); s++ {
		m := p.SymbolValue(s)
		f0 := float64(m) / float64(p.ChirpCount()) * p.BandwidthHz / 1000
		t.AddRow(fmt.Sprintf("%02b", s), fmtF(f0, 1), fmtF(p.PeakFraction(m), 3))
	}
	t.AddNote("higher initial frequency offsets peak earlier in the symbol window (Figure 3b)")
	return t, nil
}

func runFig5(o Options) (*Table, error) {
	saw := analog.PaperSAW()
	t := &Table{
		ID:     "fig5",
		Title:  "SAW response (B39431B3790Z810 model)",
		Header: []string{"frequency (MHz)", "response (dB)"},
	}
	for _, f := range []float64{428, 432, 433, 433.5, 433.75, 433.875, 434, 436, 437.5, 440} {
		t.AddRow(fmtF(f, 3), fmtF(saw.ResponseDB(f*1e6), 1))
	}
	t.AddRow("--", "--")
	for _, bw := range []float64{500e3, 250e3, 125e3} {
		t.AddRow(fmt.Sprintf("gap over %.0f kHz", bw/1000), fmtF(saw.AmplitudeGapDB(bw), 1))
	}
	t.AddNote("insertion loss %.1f dB", saw.InsertionLossDB())
	return t, nil
}

func runFig6(o Options) (*Table, error) {
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeVanilla
	cfg.Params.K = 2
	d, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	p := cfg.Params
	t := &Table{
		ID:     "fig6",
		Title:  "SAW output envelope peaks per symbol (noise-free)",
		Header: []string{"symbol", "theory peak (fraction)", "measured peak (fraction)"},
	}
	prevMeasured := 2.0
	ordered := true
	for s := 0; s < p.AlphabetSize(); s++ {
		m := p.SymbolValue(s)
		traj := p.FreqTrajectory(nil, m, d.SimRateHz())
		env := d.RenderEnvelope(nil, traj, -50, nil)
		idx, _ := dsp.Argmax(env)
		measured := (float64(idx) + 0.5) / float64(len(env))
		theory := p.PeakFraction(m)
		if theory == 0 {
			theory = 1
		}
		t.AddRow(fmt.Sprintf("%02b", s), fmtF(theory, 3), fmtF(measured, 3))
		if s > 0 && measured >= prevMeasured {
			ordered = false
		}
		if s > 0 {
			prevMeasured = measured
		}
	}
	t.AddNote("peaks strictly ordered by symbol (later symbols peak earlier): %v", ordered)
	return t, nil
}

func runFig7(o Options) (*Table, error) {
	// The Figure 7 scenario: a noisy envelope with a misleading bump before
	// the real peak and a valley inside it.
	env := []float64{
		0.08, 0.12, 0.42, 0.5, 0.44, 0.2, 0.25,
		0.55, 0.83, 0.74, 0.66, 0.88, 0.95, 0.9,
		0.2, 0.12, 0.06,
	}
	uh, ul := 0.8, 0.4
	truePeak := 12 // index of the 0.95 sample
	t := &Table{
		ID:     "fig7",
		Title:  "comparator comparison on a chattering envelope",
		Header: []string{"comparator", "rising edges", "claimed peak idx", "correct"},
	}
	report := func(name string, bits []bool) {
		edges := analog.Transitions(bits)
		tail, ok := analog.LastHighIndex(bits)
		claimed := "-"
		correct := false
		if ok {
			claimed = fmt.Sprint(tail)
			correct = tail >= truePeak-1 && tail <= truePeak+1
		}
		t.AddRow(name, fmt.Sprint(edges), claimed, fmt.Sprint(correct))
	}
	report("single U_H", analog.Comparator[float64]{High: uh, Low: uh}.Quantize(nil, env))
	report("single U_L", analog.Comparator[float64]{High: ul, Low: ul}.Quantize(nil, env))
	report("double U_H+U_L", analog.Comparator[float64]{High: uh, Low: ul}.Quantize(nil, env))
	t.AddNote("true peak at index %d; double threshold is the only single-run, correct detector", truePeak)
	return t, nil
}

func runFig8(o Options) (*Table, error) {
	cfg := core.DefaultConfig()
	cfg.Params.K = 3
	d, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	rng := dsp.NewRand(o.Seed, 8)
	const rss = -60.0
	d.Calibrate(rss, rng)
	payload := []int{0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0}
	frame, err := lora.NewFrame(cfg.Params, payload)
	if err != nil {
		return nil, err
	}
	got, detected, err := d.ProcessFrame(frame, rss, rng)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig8",
		Title:  "packet decode walk-through",
		Header: []string{"stage", "result"},
	}
	t.AddRow("preamble detected", fmt.Sprint(detected))
	t.AddRow("sync skip", fmt.Sprintf("%.2f symbol times", lora.SyncSymbols))
	t.AddRow("payload sent", fmt.Sprint(payload))
	t.AddRow("payload decoded", fmt.Sprint(got))
	errs, total := lora.CountBitErrors(payload, got, cfg.Params.K)
	t.AddRow("bit errors", fmt.Sprintf("%d/%d", errs, total))
	return t, nil
}

func runFig10(o Options) (*Table, error) {
	// 24 chirps, SF8, BW 500 kHz (the paper's Figure 10 signal), rendered
	// through the vanilla and frequency-shifted chains at the same RSS;
	// SNR is measured against the noise-free reference envelope.
	const rss = -70.0
	reps := o.scale(8, 3)
	t := &Table{
		ID:     "fig10",
		Title:  "baseband SNR with and without cyclic-frequency shifting",
		Header: []string{"chain", "envelope SNR (dB)"},
	}
	snrs := map[core.Mode]float64{}
	for _, mode := range []core.Mode{core.ModeVanilla, core.ModeFreqShift} {
		cfg := core.DefaultConfig()
		cfg.Mode = mode
		cfg.Params.SF = 8
		d, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		p := cfg.Params
		var traj []float64
		for i := 0; i < 24; i++ {
			traj = append(traj, p.FreqTrajectory(nil, 0, d.SimRateHz())...)
		}
		clean := append([]float64(nil), d.RenderEnvelope(nil, traj, rss, nil)...)
		cm := dsp.Mean(clean)
		var sigPow, noisePow float64
		rng := dsp.NewRand(o.Seed, uint64(mode))
		for r := 0; r < reps; r++ {
			noisy := d.RenderEnvelope(nil, traj, rss, rng)
			nm := dsp.Mean(noisy)
			for i := range clean {
				s := clean[i] - cm
				nv := (noisy[i] - nm) - s
				sigPow += s * s
				noisePow += nv * nv
			}
		}
		snr := dsp.DB(sigPow / noisePow)
		snrs[mode] = snr
		t.AddRow(mode.String(), fmtF(snr, 1))
	}
	gain := snrs[core.ModeFreqShift] - snrs[core.ModeVanilla]
	t.AddNote("cyclic-frequency shifting gain: %.1f dB (paper: ~11 dB)", gain)
	if gain < 5 {
		return t, fmt.Errorf("fig10: measured gain %.1f dB implausibly low", gain)
	}
	return t, nil
}
