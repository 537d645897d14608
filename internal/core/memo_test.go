package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"saiyan/internal/dsp"
	"saiyan/internal/lora"
)

// templateDemod returns a prewarmed ModeFull demodulator at rate K.
func templateDemod(t testing.TB, k int) *Demodulator {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Params.K = k
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.PrewarmAuto()
	return d
}

// checkScores holds bestTemplate on win to windowCorrelation, bit for
// bit: over the whole bank it must pick the first best template with its
// exact score, and on a one-template view of each template it must return
// that template's exact score. Each template wins some random windows, so
// every accumulator of a group of four has its score checked.
func checkScores(t *testing.T, label string, d *Demodulator, win []float64) {
	t.Helper()
	best, bestScore := 0, math.Inf(-1)
	for sym, tmpl := range d.templates {
		want := windowCorrelation(win, tmpl)
		if want > bestScore {
			best, bestScore = sym, want
		}
		view := *d
		view.templates = d.templates[sym : sym+1]
		if d.tmplStats != nil {
			view.tmplStats = d.tmplStats[sym : sym+1]
		}
		if _, got := view.bestTemplate(win); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: template %d scores %v, windowCorrelation %v", label, sym, got, want)
		}
	}
	if b, score := d.bestTemplate(win); b != best || math.Float64bits(score) != math.Float64bits(bestScore) {
		t.Fatalf("%s: bestTemplate = %d (%v), want %d (%v)", label, b, score, best, bestScore)
	}
}

// TestBestTemplateMatchesWindowCorrelation holds the one-pass correlation
// decoder to the exact two-pass windowCorrelation at K = 1..4 (two to
// sixteen templates, so short and full groups of four): on random windows,
// on every payload window and on off-grid cuts of a rendered frame, and on
// truncated and overlong edge windows.
func TestBestTemplateMatchesWindowCorrelation(t *testing.T) {
	rng := dsp.NewRand(28, 1)
	for k := 1; k <= 4; k++ {
		d := templateDemod(t, k)
		n := len(d.templates[0])
		if d.tmplStats == nil {
			t.Fatalf("K=%d: no template stats", k)
		}
		for i := 0; i < 200; i++ {
			win := make([]float64, n)
			for j := range win {
				win[j] = rng.NormFloat64()
			}
			checkScores(t, "random", d, win)
		}

		p := d.cfg.Params
		payload := make([]int, lora.DefaultPayloadSymbols)
		for i := range payload {
			payload[i] = rng.IntN(p.AlphabetSize())
		}
		frame, err := lora.NewFrame(p, payload)
		if err != nil {
			t.Fatal(err)
		}
		env := d.RenderCorrEnvelope(nil, frame.FreqTrajectory(nil, d.fsSim), -75, rng)
		decim := d.cfg.Oversample / d.cfg.CorrOversample
		for s := 0; s*n < len(env); s++ {
			lo, hi := d.symbolWindow(s, decim, len(env))
			checkScores(t, "payload window", d, env[lo:hi])
		}
		for at := 0; at+n <= len(env); at += 7 {
			checkScores(t, "off-grid cut", d, env[at:at+n])
		}
		for _, m := range []int{0, 1, n / 2, n - 1, n + 1, n + 5} {
			checkScores(t, "edge window", d, env[len(env)-min(m, len(env)):])
		}
	}
}

// BenchmarkBestTemplate times one symbol decision of the correlation
// decoder on a full-length window at K = 1..4 (two to sixteen templates).
func BenchmarkBestTemplate(b *testing.B) {
	for k := 1; k <= 4; k++ {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			d := templateDemod(b, k)
			rng := dsp.NewRand(28, 2)
			win := make([]float64, len(d.templates[0]))
			for i := range win {
				win[i] = rng.NormFloat64()
			}
			b.ReportAllocs()
			for b.Loop() {
				d.bestTemplate(win)
			}
		})
	}
}

// sameArtifacts compares everything a prewarmed master carries.
func sameArtifacts(t *testing.T, label string, got, want *Demodulator) {
	t.Helper()
	if got.Calibration() != want.Calibration() {
		t.Errorf("%s: calibration %+v, want %+v", label, got.Calibration(), want.Calibration())
	}
	if got.biasCached != want.biasCached || math.Float64bits(got.cachedBias) != math.Float64bits(want.cachedBias) {
		t.Errorf("%s: bias cache %v/%v, want %v/%v", label, got.biasCached, got.cachedBias, want.biasCached, want.cachedBias)
	}
	if !reflect.DeepEqual(got.templates, want.templates) || !reflect.DeepEqual(got.tmplStats, want.tmplStats) {
		t.Errorf("%s: correlation templates differ", label)
	}
	if !reflect.DeepEqual(got.detTmpl, want.detTmpl) || got.detNorm != want.detNorm {
		t.Errorf("%s: detection template differs", label)
	}
	if (got.fx == nil) != (want.fx == nil) || got.fx != nil && !reflect.DeepEqual(got.fx.Clone(), want.fx.Clone()) {
		t.Errorf("%s: fixed-point twin differs", label)
	}
}

// TestPrewarmedMemo checks the memo's key and its masters: two separate
// DefaultConfig calls share one entry, a master matches a fresh New plus
// PrewarmAuto on every mode and datapath and holds none of the render
// scratch prewarming grew, a SAW drift is part of the key,
// and a caller's later SetDrift moves neither the memoized master nor its
// key.
func TestPrewarmedMemo(t *testing.T) {
	a, ea, err := Prewarmed(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, eb, err := Prewarmed(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a != b || ea != eb {
		t.Fatalf("two DefaultConfig lookups: masters %p/%p, entries %d/%d; want one entry", a, b, ea, eb)
	}
	for _, mode := range []Mode{ModeVanilla, ModeFreqShift, ModeFull} {
		for _, dp := range []Datapath{DatapathFloat, DatapathFixed} {
			cfg := DefaultConfig()
			cfg.Mode, cfg.Datapath = mode, dp
			m, _, err := Prewarmed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref.PrewarmAuto()
			if m.scratchIQ != nil || m.scratchEnv != nil || m.scratchBuf != nil || m.gains.slots != nil {
				t.Errorf("%v/%v: the memoized master retains render scratch", mode, dp)
			}
			sameArtifacts(t, mode.String()+"/"+dp.String(), m, ref)
			sameArtifacts(t, mode.String()+"/"+dp.String()+" clone", m.Clone(), ref)
		}
	}

	cfg := DefaultConfig()
	cfg.SAW.SetDrift(-150e3)
	drifted, ed, err := Prewarmed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ed == ea {
		t.Fatal("a drifted SAW filter shares the undrifted entry")
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.PrewarmAuto()
	sameArtifacts(t, "drifted", drifted, ref)
	cfg.SAW.SetDrift(0)
	if _, e, _ := Prewarmed(cfg); e != ea {
		t.Errorf("undrifted again: entry %d, want %d", e, ea)
	}
	if drifted.cfg.SAW.Drift() != -150e3 {
		t.Errorf("caller's SetDrift moved the memoized master's SAW to %g Hz", drifted.cfg.SAW.Drift())
	}
	cfg.SAW.SetDrift(-150e3)
	if _, e, _ := Prewarmed(cfg); e != ed {
		t.Errorf("drifted again: entry %d, want %d", e, ed)
	}
}

// TestPrewarmedMemoBounded inserts more configs than the memo holds: the
// memo keeps exactly maxPrewarmed entries, and the first config, evicted,
// comes back as a new entry.
func TestPrewarmedMemoBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeVanilla
	cfg.ThresholdGapDB = 4
	_, first, err := Prewarmed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= maxPrewarmed; i++ {
		cfg.ThresholdGapDB = 4 + float64(i)/64
		if _, _, err := Prewarmed(cfg); err != nil {
			t.Fatal(err)
		}
	}
	prewarmed.Lock()
	n := prewarmed.entries.Len()
	prewarmed.Unlock()
	if n != maxPrewarmed {
		t.Errorf("memo holds %d entries, want %d", n, maxPrewarmed)
	}
	cfg.ThresholdGapDB = 4
	if _, again, _ := Prewarmed(cfg); again == first {
		t.Errorf("evicted config kept entry %d", first)
	}
}

// TestSetCalibrationMatchesCalibrate installs a calibration on a clone of
// the prewarmed master and checks it hunts as the calibrated demodulator
// does: the same scalars, noise statistics and thresholds, the same
// fixed-point thresholds, and the same preamble detection.
func TestSetCalibrationMatchesCalibrate(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeFull} {
		for _, dp := range []Datapath{DatapathFloat, DatapathFixed} {
			cfg := DefaultConfig()
			cfg.Mode, cfg.Datapath = mode, dp
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref.Calibrate(-62, dsp.NewRand(5, 0))
			master, _, err := Prewarmed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := master.Clone()
			d.SetCalibration(ref.Calibration())
			label := mode.String() + "/" + dp.String()
			if !d.calibrated || d.Calibration() != ref.Calibration() || d.Thresholds() != ref.Thresholds() {
				t.Fatalf("%s: installed %+v, want %+v", label, d.Calibration(), ref.Calibration())
			}
			if !reflect.DeepEqual(d.detTmpl, ref.detTmpl) {
				t.Fatalf("%s: detection template differs from the calibrated one", label)
			}
			if dp == DatapathFixed {
				for _, f := range []string{"adc", "comp", "biasQ15"} {
					got, want := reflect.ValueOf(*d.fx).FieldByName(f), reflect.ValueOf(*ref.fx).FieldByName(f)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: fixed-point %s = %v, want %v", label, f, got, want)
					}
				}
			}
			frame, err := lora.NewFrame(cfg.Params, make([]int, lora.DefaultPayloadSymbols))
			if err != nil {
				t.Fatal(err)
			}
			env := streamEnvelope(t, ref, frame, 3.5, -62, 40, dsp.NewRand(6, 0))
			gs, gok := d.DetectPreambleGated(env, 0)
			ws, wok := ref.DetectPreambleGated(env, 0)
			if gs != ws || gok != wok || d.CarrierSense(env) != ref.CarrierSense(env) {
				t.Fatalf("%s: detection (%d, %v), want (%d, %v)", label, gs, gok, ws, wok)
			}
		}
	}
}
