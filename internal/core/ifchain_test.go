package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"saiyan/internal/analog"
	"saiyan/internal/dsp"
)

// twoStageStream is the reference ("oracle") for the fused IF chain: the
// cyclic-frequency-shifting front end run stage by stage at the full
// simulation rate, as RenderStream renders it without fusion. It adds the
// front-end noise, mixes up, squares, adds the baseband impairments, then
// runs the IF band-pass over every sample, the IF gain, the down-mix and
// the makeup gain, and finally reads the video low-pass on each sampler
// grid. It designs its own filters from d's configuration and mutates x.
func twoStageStream(t testing.TB, d *Demodulator, x []complex128, rng *rand.Rand) (env, envC []float64) {
	t.Helper()
	cfg := d.Config()
	fsSim := d.SimRateHz()
	cutoff := cfg.VideoCutoffFrac * d.SamplerRateHz()
	ifHz := fsSim / 4
	lpf, err := dsp.NewLowPass(cutoff, fsSim, 63, dsp.Hamming)
	if err != nil {
		t.Fatal(err)
	}
	bpf, err := dsp.NewBandPass(ifHz-cutoff, ifHz+cutoff, fsSim, 63, dsp.Hamming)
	if err != nil {
		t.Fatal(err)
	}
	if rng != nil {
		dsp.AddComplexNoise(x, 1, rng)
	}
	up := analog.ClockTable(8, 0)
	for i := range x {
		x[i] *= complex(up[i%8], 0)
	}
	z := cfg.Envelope.Detect(nil, x)
	if rng != nil {
		cfg.Envelope.AddBasebandImpairments(z, nil, fsSim, rng)
	}
	y := bpf.ApplyDecimated(nil, z, 1, 0)
	gain := cfg.IFAmp.Gain()
	for i := range y {
		y[i] *= gain
	}
	down := analog.ClockTable(4, cfg.ClockPhaseError)
	for i := range y {
		y[i] *= down[i%4]
	}
	makeup := 4 / gain
	for i := range y {
		y[i] *= makeup
	}
	env = analog.Sampler{Oversample: cfg.Oversample}.SampleFiltered(nil, y, lpf)
	if cfg.Mode == ModeFull {
		envC = analog.Sampler{Oversample: cfg.Oversample / cfg.CorrOversample}.SampleFiltered(nil, y, lpf)
	}
	return env, envC
}

// checkFused compares one fused sampler stream against the oracle's.
// Outputs within ifEdge samples of either end of the n-sample buffer must
// match bit for bit; interior outputs within 1e-10 of the oracle's peak.
func checkFused(t testing.TB, label string, got, want []float64, n, decim int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, oracle %d", label, len(got), len(want))
	}
	peak := 0.0
	for _, v := range want {
		peak = max(peak, math.Abs(v))
	}
	off := decim / 2
	for m := range want {
		i := off + m*decim
		if i < ifEdge || i >= n-ifEdge {
			if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
				t.Fatalf("%s: edge output %d (sim index %d of %d) = %v, oracle %v", label, m, i, n, got[m], want[m])
			}
		} else if math.Abs(got[m]-want[m]) > 1e-10*peak {
			t.Fatalf("%s: output %d (sim index %d of %d) = %v, oracle %v (peak %v)", label, m, i, n, got[m], want[m], peak)
		}
	}
}

// checkFusedStream renders x through d.RenderStream and through the
// oracle, with the same noise shard, and compares every sampler stream.
func checkFusedStream(t testing.TB, label string, d *Demodulator, x []complex128, seed uint64) {
	t.Helper()
	cfg := d.Config()
	x2 := append([]complex128(nil), x...)
	env, envC := d.RenderStream(x, dsp.NewRand(seed, 1))
	wantEnv, wantEnvC := twoStageStream(t, d, x2, dsp.NewRand(seed, 1))
	checkFused(t, label+" env", env, wantEnv, len(x), cfg.Oversample)
	if cfg.Mode == ModeFull {
		checkFused(t, label+" envC", envC, wantEnvC, len(x), cfg.Oversample/cfg.CorrOversample)
	}
}

// TestFusedIFMatchesTwoStage holds the fused 4-phase IF filter to the
// two-stage oracle across both shifting modes, a tuned and a mistuned
// output clock, sampler grids that land on one phase (16/4, 8/2) and grids
// that cycle through two (6/3, whose correlator decimates by 2) or four
// (10/2, decimating by 5), a full frame, and buffers shorter than the
// fused filter.
func TestFusedIFMatchesTwoStage(t *testing.T) {
	for _, mode := range []Mode{ModeFreqShift, ModeFull} {
		for _, phaseErr := range []float64{0, 0.3} {
			for _, ov := range [][2]int{{16, 4}, {8, 2}, {6, 3}, {10, 2}} {
				cfg := DefaultConfig()
				cfg.Mode = mode
				cfg.ClockPhaseError = phaseErr
				cfg.Oversample, cfg.CorrOversample = ov[0], ov[1]
				d := freshDemod(t, cfg)()
				traj := renderTestTrajectory(t, cfg.Params, d.SimRateHz())
				for _, n := range []int{0, 1, 30, 31, 62, 63, 94, 124, 125, 200, len(traj)} {
					label := fmt.Sprintf("%v phase %g %d/%d n=%d", mode, phaseErr, ov[0], ov[1], n)
					x := make([]complex128, n)
					d.ComposeSignal(x, 0, traj[len(traj)/2:], -80)
					checkFusedStream(t, label, d, x, uint64(n))
				}
			}
		}
	}
}

// FuzzFusedIF runs the oracle check on fuzzed signals, lengths, sampler
// grids and output-clock phase errors.
func FuzzFusedIF(f *testing.F) {
	f.Add(uint64(1), uint16(3000), 0.0, uint8(16), uint8(4), true)
	f.Add(uint64(2), uint16(100), 0.3, uint8(6), uint8(3), true)
	f.Add(uint64(3), uint16(20), -1.2, uint8(5), uint8(1), false)
	f.Add(uint64(4), uint16(777), 3.0, uint8(10), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, phaseErr float64, oversample, corr uint8, full bool) {
		if math.IsNaN(phaseErr) || math.Abs(phaseErr) > 100 {
			t.Skip()
		}
		cfg := DefaultConfig()
		cfg.Mode = ModeFreqShift
		if full {
			cfg.Mode = ModeFull
		}
		cfg.ClockPhaseError = phaseErr
		cfg.Oversample = 3 + int(oversample%14)
		cfg.CorrOversample = 1 + int(corr)%cfg.Oversample
		if cfg.Oversample%cfg.CorrOversample != 0 {
			cfg.CorrOversample = 1
		}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := dsp.NewRand(seed, 7)
		amp := math.Exp(4 * rng.NormFloat64())
		x := make([]complex128, int(n%4001))
		for i := range x {
			x[i] = complex(amp*rng.NormFloat64(), amp*rng.NormFloat64())
		}
		checkFusedStream(t, "fuzz", d, x, seed)
	})
}

// TestFrontEndShared checks the design memo: two New calls on one Config
// and a Clone share one front end, so the phase filters are designed once,
// and once a design is cached New and Clone allocate at most 7 times each.
func TestFrontEndShared(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeFreqShift, ModeFull} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		a, b := freshDemod(t, cfg)(), freshDemod(t, cfg)()
		c := a.Clone()
		if a.fe != b.fe || a.fe != c.fe {
			t.Fatalf("%v: front ends not shared: %p %p %p", mode, a.fe, b.fe, c.fe)
		}
		for r, p := range a.fe.phases {
			if p != b.fe.phases[r] || p != c.fe.phases[r] {
				t.Fatalf("%v: phase filter %d not shared", mode, r)
			}
		}
		if mode != ModeVanilla && a.fe.phases[0] == nil {
			t.Fatalf("%v: no phase filters", mode)
		}
		newAllocs := testing.AllocsPerRun(20, func() {
			if _, err := New(cfg); err != nil {
				t.Fatal(err)
			}
		})
		cloneAllocs := testing.AllocsPerRun(20, func() { a.Clone() })
		if newAllocs > 7 || cloneAllocs > 7 {
			t.Errorf("%v: New allocates %v times, Clone %v; want at most 7", mode, newAllocs, cloneAllocs)
		}
	}
}
