package saiyan_test

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// bench runs a fixed Monte-Carlo workload and reports the quality metric
// (symbol error rate, chatter count, ...) via b.ReportMetric, so
// `go test -bench=Ablation` doubles as a design-space exploration harness.

import (
	"testing"

	"saiyan"
	"saiyan/internal/analog"
	"saiyan/internal/core"
	"saiyan/internal/dsp"
	"saiyan/internal/radio"
	"saiyan/internal/sim"
)

// measureSERAt runs payload symbols through a configured demodulator at a
// fixed RSS and returns the symbol error rate.
func measureSERAt(b *testing.B, cfg core.Config, rssDBm float64, nSyms int, seed uint64) float64 {
	b.Helper()
	d, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := dsp.NewRand(seed, 1)
	d.Calibrate(rssDBm, rng)
	p := cfg.Params
	errs := 0
	const perBatch = 16
	want := make([]int, perBatch)
	var traj []float64
	for done := 0; done < nSyms; done += perBatch {
		traj = traj[:0]
		for i := 0; i < perBatch; i++ {
			want[i] = rng.IntN(p.AlphabetSize())
			traj = append(traj, p.FreqTrajectory(nil, p.SymbolValue(want[i]), d.SimRateHz())...)
		}
		got, err := d.DemodulatePayload(traj, rssDBm, perBatch, rng)
		if err != nil {
			b.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				errs++
			}
		}
	}
	return float64(errs) / float64(nSyms)
}

// BenchmarkAblationThresholdGap sweeps the comparator headroom G
// (Section 4.1's U_H = Amax/10^(G/20)): too little headroom misses
// low-amplitude peaks, too much lets noise through.
func BenchmarkAblationThresholdGap(b *testing.B) {
	for _, gap := range []float64{2, 5, 9} {
		b.Run(map[float64]string{2: "G=2dB", 5: "G=5dB", 9: "G=9dB"}[gap], func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Mode = core.ModeVanilla
			cfg.ThresholdGapDB = gap
			var ser float64
			for i := 0; i < b.N; i++ {
				ser = measureSERAt(b, cfg, -66, 512, 11)
			}
			b.ReportMetric(ser, "SER")
		})
	}
}

// BenchmarkAblationSampleRate sweeps the sampler multiplier around the
// paper's conservative 3.2x choice (Table 1).
func BenchmarkAblationSampleRate(b *testing.B) {
	for _, mult := range []float64{2.0, 3.2, 4.0} {
		b.Run(map[float64]string{2.0: "2.0x", 3.2: "3.2x", 4.0: "4.0x"}[mult], func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Mode = core.ModeVanilla
			cfg.Params.K = 3
			cfg.SampleRateMultiplier = mult
			var ser float64
			for i := 0; i < b.N; i++ {
				ser = measureSERAt(b, cfg, -60, 512, 13)
			}
			b.ReportMetric(ser, "SER")
		})
	}
}

// BenchmarkAblationComparatorChatter compares the double-threshold design
// against single thresholds on noisy envelopes (the Figure 7 argument),
// reporting rising-edge counts per symbol — each spurious edge is a
// potential decode error.
func BenchmarkAblationComparatorChatter(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeVanilla
	d, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := dsp.NewRand(17, 18)
	const rss = -68.0
	d.Calibrate(rss, rng)
	th := d.Thresholds()
	p := cfg.Params
	var traj []float64
	const nSym = 64
	for i := 0; i < nSym; i++ {
		traj = append(traj, p.FreqTrajectory(nil, 0, d.SimRateHz())...)
	}
	run := func(b *testing.B, quantize func([]float64) []bool) {
		var edges int
		for i := 0; i < b.N; i++ {
			env := d.RenderEnvelope(nil, traj, rss, rng)
			edges = analog.Transitions(quantize(env))
		}
		b.ReportMetric(float64(edges)/nSym, "edges/symbol")
	}
	b.Run("double", func(b *testing.B) {
		run(b, func(env []float64) []bool { return th.Quantize(nil, env) })
	})
	b.Run("single-UH", func(b *testing.B) {
		run(b, func(env []float64) []bool {
			return analog.Comparator[float64]{High: th.High, Low: th.High}.Quantize(nil, env)
		})
	})
	b.Run("single-UL", func(b *testing.B) {
		run(b, func(env []float64) []bool {
			return analog.Comparator[float64]{High: th.Low, Low: th.Low}.Quantize(nil, env)
		})
	})
}

// BenchmarkAblationClockPhase quantifies the Eq. (5) requirement
// cos(dphi)~1: the recovered envelope peak collapses as the delay line
// detunes.
func BenchmarkAblationClockPhase(b *testing.B) {
	for _, name := range []string{"tuned", "detuned"} {
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Mode = core.ModeFreqShift
			if name == "detuned" {
				cfg.ClockPhaseError = 1.2
			}
			d, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			p := cfg.Params
			traj := p.FreqTrajectory(nil, 0, d.SimRateHz())
			var peak float64
			for i := 0; i < b.N; i++ {
				env := d.RenderEnvelope(nil, traj, -60, nil)
				peak = dsp.Max(env)
			}
			b.ReportMetric(peak, "peak")
		})
	}
}

// BenchmarkAblationGrayCoding measures the BER saving from Gray-mapping
// downlink symbols (adjacent peak-position slips cost one bit instead of
// up to K).
func BenchmarkAblationGrayCoding(b *testing.B) {
	cfg := saiyan.DefaultConfig()
	cfg.Params.K = 4
	link := sim.NewLink(cfg, radio.DefaultLinkBudget(), 19)
	for _, gray := range []bool{false, true} {
		name := "binary"
		if gray {
			name = "gray"
		}
		b.Run(name, func(b *testing.B) {
			var ber float64
			for i := 0; i < b.N; i++ {
				res, err := link.MeasureBERCoded(150, 1024, gray)
				if err != nil {
					b.Fatal(err)
				}
				ber = res.BER()
			}
			b.ReportMetric(ber, "BER")
		})
	}
}
