package core

import (
	"fmt"
	"math"
	"testing"

	"saiyan/internal/dsp"
	"saiyan/internal/lora"
)

// renderAll pushes traj through every render entry point — the
// sampler-rate and correlator-rate per-frame renders and a one-pass stream
// render of the trajectory composed twice, the second copy overlapping the
// first — asking demod for the Demodulator of each step, and returns the
// outputs in a fixed order. Noise shards are fixed, so the outputs depend
// only on the demodulators' configuration and state.
func renderAll(demod func() *Demodulator, traj []float64, rssDBm float64) [][]float64 {
	out := [][]float64{
		demod().RenderEnvelope(nil, traj, rssDBm, dsp.NewRand(1, 1)),
		demod().RenderCorrEnvelope(nil, traj, rssDBm, dsp.NewRand(1, 2)),
		demod().RenderEnvelope(nil, traj, rssDBm, nil),
	}
	d := demod()
	x := make([]complex128, 2*len(traj))
	d.ComposeSignal(x, 100, traj, rssDBm)
	d.ComposeSignal(x, len(traj)-300, traj, rssDBm-6)
	env, envC := d.RenderStream(x, dsp.NewRand(1, 3))
	return append(out, env, envC)
}

// sameBits fails unless every output series has identical bits.
func sameBits(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	for s := range want {
		if len(got[s]) != len(want[s]) {
			t.Fatalf("%s: series %d has %d samples, want %d", label, s, len(got[s]), len(want[s]))
		}
		for i := range want[s] {
			if math.Float64bits(got[s][i]) != math.Float64bits(want[s][i]) {
				t.Fatalf("%s: series %d sample %d = %v, want %v", label, s, i, got[s][i], want[s][i])
			}
		}
	}
}

func renderTestTrajectory(t *testing.T, p lora.Params, fsSim float64) []float64 {
	t.Helper()
	frames := cloneTestFrames(t, p, 1)
	return frames[0].FreqTrajectory(nil, fsSim)
}

// freshDemod returns a constructor of new Demodulators for cfg.
func freshDemod(t *testing.T, cfg Config) func() *Demodulator {
	return func() *Demodulator {
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
}

// reuse returns d at every step.
func reuse(d *Demodulator) func() *Demodulator {
	return func() *Demodulator { return d }
}

// TestRepeatedRendersMatchFresh renders the same trajectory three times
// through every entry point of one Demodulator, in every mode: each render
// must equal a fresh Demodulator's render bit for bit. This pins the
// scratch-buffer handling of the analog chain directly — a filter that
// reads its own output on a later render, or a stale buffer, shows up here.
func TestRepeatedRendersMatchFresh(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeFreqShift, ModeFull} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		fresh := freshDemod(t, cfg)
		d := fresh()
		traj := renderTestTrajectory(t, cfg.Params, d.SimRateHz())
		want := renderAll(fresh, traj, -75)
		for pass := 1; pass <= 3; pass++ {
			sameBits(t, fmt.Sprintf("%v pass %d", mode, pass), renderAll(reuse(d), traj, -75), want)
		}
	}
}

// TestSAWMemoFollowsDrift checks that the SAW gain memo is invalidated by
// SetDrift: after a drift change the same Demodulator must render exactly
// what a fresh one built at that drift renders, and restoring the drift
// must restore the original bytes.
func TestSAWMemoFollowsDrift(t *testing.T) {
	cfg := DefaultConfig()
	d := freshDemod(t, cfg)()
	traj := renderTestTrajectory(t, cfg.Params, d.SimRateHz())
	base := renderAll(reuse(d), traj, -75)

	cfg.SAW.SetDrift(-200e3)
	drifted := renderAll(reuse(d), traj, -75)
	sameBits(t, "drifted", drifted, renderAll(freshDemod(t, cfg), traj, -75))
	if mid := len(base[2]) / 2; drifted[2][mid] == base[2][mid] {
		t.Fatal("a 200 kHz SAW drift left the noise-free render unchanged")
	}

	cfg.SAW.SetDrift(0)
	sameBits(t, "restored", renderAll(reuse(d), traj, -75), base)
}

// TestSAWMemoMatchesGain checks memo lookups against SAWFilter.Gain over a
// frame's offsets, both signed zeros, and more distinct offsets than the
// table holds.
func TestSAWMemoMatchesGain(t *testing.T) {
	cfg := DefaultConfig()
	d := freshDemod(t, cfg)()
	m := &d.gains
	m.sync(cfg.SAW)
	offsets := renderTestTrajectory(t, cfg.Params, d.SimRateHz())
	for i := range 3 * len(m.slots) {
		offsets = append(offsets, float64(i)*37.5-250e3)
	}
	offsets = append(offsets, math.Copysign(0, -1), 0)
	for pass := range 2 {
		for _, f := range offsets {
			got, want := m.gain(f), cfg.SAW.Gain(cfg.Params.CarrierHz+f)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pass %d: gain(%v) = %v, SAW gives %v", pass, f, got, want)
			}
		}
	}
	if 2*m.used > len(m.slots) {
		t.Fatalf("memo holds %d entries in %d slots, above half full", m.used, len(m.slots))
	}
}
