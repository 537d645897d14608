package fxp_test

// The float-vs-fixed-point parity harness: the acceptance gate for the
// integer MCU datapath. It renders identical noisy envelopes through both
// datapaths across a sweep of SNR, coding rate, carrier frequency offset,
// and decoder mode, demands symbol-level agreement of at least 99 %, and
// prices the accumulated cycle ledger through internal/energy against the
// paper's Table 2 MCU entry.

import (
	"math"
	"testing"
	"time"

	"saiyan/internal/core"
	"saiyan/internal/dsp"
	"saiyan/internal/energy"
	"saiyan/internal/lora"
)

// parityCombo is one cell of the sweep.
type parityCombo struct {
	mode   core.Mode
	k      int
	rssDBm float64
	cfoHz  float64
}

func paritySweep(short bool) []parityCombo {
	modes := []core.Mode{core.ModeFull, core.ModeFreqShift}
	ks := []int{1, 2, 3}
	rss := []float64{-50, -60}
	cfos := []float64{0, 1000, -1000}
	if short {
		ks = []int{1, 3}
		rss = []float64{-55}
		cfos = []float64{0, 1000}
	}
	var sweep []parityCombo
	for _, m := range modes {
		for _, k := range ks {
			for _, r := range rss {
				for _, c := range cfos {
					sweep = append(sweep, parityCombo{mode: m, k: k, rssDBm: r, cfoHz: c})
				}
			}
		}
	}
	return sweep
}

func TestFxpFloatParity(t *testing.T) {
	const framesPerCombo = 4
	const payloadLen = 16
	sweep := paritySweep(testing.Short())

	var total, agree int
	var cycles uint64
	var airtime float64
	seq := uint64(0)
	for ci, c := range sweep {
		p := lora.DefaultParams()
		p.K = c.k
		cfg := core.DefaultConfig()
		cfg.Params = p
		cfg.Mode = c.mode
		fl, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Datapath = core.DatapathFixed
		fx, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Same calibration noise seed: both datapaths derive identical
		// float thresholds; only the decode arithmetic differs.
		fl.Calibrate(c.rssDBm, dsp.NewRand(11, uint64(ci)))
		fx.Calibrate(c.rssDBm, dsp.NewRand(11, uint64(ci)))

		payloadRng := dsp.NewRand(23, uint64(ci))
		var traj, one []float64
		comboTotal, comboAgree := 0, 0
		for f := 0; f < framesPerCombo; f++ {
			traj = traj[:0]
			for s := 0; s < payloadLen; s++ {
				sym := payloadRng.IntN(p.AlphabetSize())
				one = p.FreqTrajectory(one, p.SymbolValue(sym), fl.SimRateHz())
				traj = append(traj, one...)
			}
			for i := range traj {
				traj[i] += c.cfoHz
			}
			seq++
			symsF, err := fl.DemodulatePayload(traj, c.rssDBm, payloadLen, dsp.NewRand(37, seq))
			if err != nil {
				t.Fatal(err)
			}
			symsX, err := fx.DemodulatePayload(traj, c.rssDBm, payloadLen, dsp.NewRand(37, seq))
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < payloadLen; s++ {
				comboTotal++
				if symsF[s] == symsX[s] {
					comboAgree++
				}
			}
			airtime += payloadLen * p.SymbolDuration()
		}
		total += comboTotal
		agree += comboAgree
		cycles += fx.TakeFxpCycles()
		t.Logf("mode=%v K=%d rss=%g cfo=%+g: %d/%d symbols agree",
			c.mode, c.k, c.rssDBm, c.cfoHz, comboAgree, comboTotal)
	}

	if ratio := float64(agree) / float64(total); ratio < 0.99 {
		t.Errorf("float-vs-fxp symbol agreement %.4f < 0.99 (%d/%d)", ratio, agree, total)
	}
	if cycles == 0 {
		t.Fatal("fixed-point datapath reported no cycles")
	}

	// Price the cycle ledger through the energy model: the decode must run
	// in real time on the prototype's clock, which is exactly the condition
	// for the duty-cycled draw to fit under the Table 2 MCU entry.
	span := time.Duration(airtime * float64(time.Second))
	budget := energy.DefaultMCUBudget()
	if budget.LoadFraction(cycles, span) > 1 {
		t.Errorf("fxp decode needs %.2fx real time on a %.0f MHz clock",
			budget.LoadFraction(cycles, span), budget.ClockHz/1e6)
	}
	duty := energy.PCBLedger().DutyCycle
	got := budget.DutyCycledPowerUW(cycles, span, duty)
	if got > energy.MCUApollo2UW {
		t.Errorf("duty-cycled MCU draw %.2f uW exceeds the Table 2 entry %.1f uW", got, energy.MCUApollo2UW)
	}
	t.Logf("cycle budget: %d cycles over %.1f ms of payload air -> %.1f%% load, %.2f uW at %.0f%% duty (Table 2 MCU: %.1f uW)",
		cycles, airtime*1e3, 100*budget.LoadFraction(cycles, span), got, 100*duty, energy.MCUApollo2UW)
}

// TestFxpADCDepthSweep exercises the bit-depth knob: agreement with the
// float reference must not degrade as resolution rises, and at 12 bits it
// must clear the parity bar on its own.
func TestFxpADCDepthSweep(t *testing.T) {
	const rss = -55.0
	const payloadLen = 16
	frames := 6
	if testing.Short() {
		frames = 3
	}
	p := lora.DefaultParams()
	base := core.DefaultConfig()
	fl, err := core.New(base)
	if err != nil {
		t.Fatal(err)
	}
	fl.Calibrate(rss, dsp.NewRand(3, 3))

	agreeAt := func(bits int) float64 {
		cfg := base
		cfg.Datapath = core.DatapathFixed
		cfg.ADCBits = bits
		fx, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fx.Calibrate(rss, dsp.NewRand(3, 3))
		payloadRng := dsp.NewRand(5, uint64(bits))
		match, total := 0, 0
		var traj, one []float64
		for f := 0; f < frames; f++ {
			traj = traj[:0]
			for s := 0; s < payloadLen; s++ {
				sym := payloadRng.IntN(p.AlphabetSize())
				one = p.FreqTrajectory(one, p.SymbolValue(sym), fl.SimRateHz())
				traj = append(traj, one...)
			}
			seed := uint64(bits*1000 + f)
			symsF, err := fl.DemodulatePayload(traj, rss, payloadLen, dsp.NewRand(41, seed))
			if err != nil {
				t.Fatal(err)
			}
			symsX, err := fx.DemodulatePayload(traj, rss, payloadLen, dsp.NewRand(41, seed))
			if err != nil {
				t.Fatal(err)
			}
			for s := range symsF {
				total++
				if symsF[s] == symsX[s] {
					match++
				}
			}
		}
		return float64(match) / float64(total)
	}

	coarse := agreeAt(4)
	fine := agreeAt(12)
	t.Logf("agreement: 4-bit %.3f, 12-bit %.3f", coarse, fine)
	if fine < 0.99 {
		t.Errorf("12-bit agreement %.4f < 0.99", fine)
	}
	if fine+1e-9 < coarse-0.05 {
		t.Errorf("agreement degraded with resolution: 4-bit %.3f vs 12-bit %.3f", coarse, fine)
	}
	if math.IsNaN(coarse) || math.IsNaN(fine) {
		t.Fatal("no symbols compared")
	}
}
