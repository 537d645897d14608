package baseline

import (
	"math"
	"testing"

	"saiyan/internal/dsp"
	"saiyan/internal/lora"
	"saiyan/internal/radio"
)

func TestConventionalReceiverEnvelopeLevels(t *testing.T) {
	c := DefaultConventionalReceiver()
	rng := dsp.NewRand(1, 1)
	on := c.RenderEnvelope(2000, nil, -50, rng)
	off := c.RenderEnvelope(2000, packetMask(0, 0, 2000), math.Inf(-1), rng)
	if dsp.Mean(on) <= dsp.Mean(off) {
		t.Error("signal envelope not above noise envelope")
	}
}

func TestPacketMask(t *testing.T) {
	m := packetMask(2, 3, 8)
	want := []bool{false, false, true, true, true, false, false, false}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("mask[%d] = %v, want %v", i, m[i], want[i])
		}
	}
	// On-period clipped at the total length.
	m = packetMask(6, 10, 8)
	if !m[7] || m[5] {
		t.Error("clipped mask wrong")
	}
}

func TestDetectorsFireOnStrongPackets(t *testing.T) {
	c := DefaultConventionalReceiver()
	p := lora.DefaultParams()
	dur := (lora.PreambleUpchirps + lora.SyncSymbols) * p.SymbolDuration()
	for _, det := range []Detector{
		NewPLoRaDetector(dur, c.SampleRateHz),
		NewAlobaDetector(dur, c.SampleRateHz),
	} {
		rng := dsp.NewRand(7, 7)
		if prob := DetectionProbability(c, det, -40, dur, 20, rng); prob < 0.95 {
			t.Errorf("%s: detection at -40 dBm = %g, want ~1", det.Name(), prob)
		}
	}
}

func TestDetectorsQuietOnNoise(t *testing.T) {
	c := DefaultConventionalReceiver()
	p := lora.DefaultParams()
	dur := (lora.PreambleUpchirps + lora.SyncSymbols) * p.SymbolDuration()
	for _, det := range []Detector{
		NewPLoRaDetector(dur, c.SampleRateHz),
		NewAlobaDetector(dur, c.SampleRateHz),
	} {
		rng := dsp.NewRand(8, 8)
		if prob := DetectionProbability(c, det, math.Inf(-1), dur, 20, rng); prob > 0.1 {
			t.Errorf("%s: false positive rate on noise = %g, want ~0", det.Name(), prob)
		}
	}
}

func TestDetectionRangesMatchPaperOrdering(t *testing.T) {
	// Figure 21 outdoors: PLoRa 42.4 m, Aloba 30.6 m — PLoRa's correlation
	// outranges Aloba's moving average, and both fall far short of
	// Saiyan's ~148 m.
	c := DefaultConventionalReceiver()
	p := lora.DefaultParams()
	dur := (lora.PreambleUpchirps + lora.SyncSymbols) * p.SymbolDuration()
	budget := radio.DefaultLinkBudget()
	plora := DetectionRange(c, NewPLoRaDetector(dur, c.SampleRateHz), budget, 0.9, 16, 11)
	aloba := DetectionRange(c, NewAlobaDetector(dur, c.SampleRateHz), budget, 0.9, 16, 11)
	t.Logf("detection ranges: PLoRa %.1f m, Aloba %.1f m", plora, aloba)
	if plora <= aloba {
		t.Errorf("PLoRa (%.1f m) should outrange Aloba (%.1f m)", plora, aloba)
	}
	if plora < 20 || plora > 90 {
		t.Errorf("PLoRa range %.1f m outside plausible band [20, 90]", plora)
	}
	if aloba < 12 || aloba > 60 {
		t.Errorf("Aloba range %.1f m outside plausible band [12, 60]", aloba)
	}
}

func TestPLoRaUplinkBERCurve(t *testing.T) {
	u, err := NewPLoRaUplink()
	if err != nil {
		t.Fatal(err)
	}
	rng := dsp.NewRand(2, 2)
	// CSS has huge processing gain: at 0 dB the BER should be tiny; far
	// below the noise floor it should approach 0.5.
	good := u.BER(0, 300, rng)
	bad := u.BER(-25, 300, rng)
	if good > 0.01 {
		t.Errorf("PLoRa BER at 0 dB = %g, want ~0", good)
	}
	if bad < 0.2 {
		t.Errorf("PLoRa BER at -25 dB = %g, want ~0.5", bad)
	}
	if u.BitsPerSymbol() != 9 {
		t.Errorf("bits/symbol = %d, want 9", u.BitsPerSymbol())
	}
}

func TestAlobaUplinkWorseThanPLoRa(t *testing.T) {
	pl, err := NewPLoRaUplink()
	if err != nil {
		t.Fatal(err)
	}
	al := NewAlobaUplink()
	rng := dsp.NewRand(3, 3)
	const snr = -8.0
	plBER := pl.BER(snr, 400, rng)
	alBER := al.BER(snr, 400, rng)
	if alBER <= plBER {
		t.Errorf("OOK (%g) should err more than CSS (%g) at %g dB", alBER, plBER, snr)
	}
}

func TestUplinkBERRisesWithTagDistance(t *testing.T) {
	// The Figure 2 shape: with Tx and Rx 100 m apart, moving the tag away
	// from the Tx raises the uplink BER dramatically.
	u, err := NewPLoRaUplink()
	if err != nil {
		t.Fatal(err)
	}
	link := radio.DefaultBackscatterLink()
	near := UplinkBERAtGeometry(u, link, 1, 100, 200, 5)
	far := UplinkBERAtGeometry(u, link, 20, 100, 200, 5)
	t.Logf("PLoRa uplink BER: 1 m %.4f, 20 m %.4f", near, far)
	if far <= near {
		t.Errorf("BER should rise with tag-to-Tx distance: near %g far %g", near, far)
	}
	if far < 0.05 {
		t.Errorf("BER at 20 m = %g, want the Figure 2 collapse", far)
	}
}

func TestDetectorNames(t *testing.T) {
	if NewPLoRaDetector(0.01, 50e3).Name() != "PLoRa" {
		t.Error("PLoRa name")
	}
	if NewAlobaDetector(0.01, 50e3).Name() != "Aloba" {
		t.Error("Aloba name")
	}
	pl, _ := NewPLoRaUplink()
	if pl.Name() != "PLoRa" || NewAlobaUplink().Name() != "Aloba" {
		t.Error("uplink names")
	}
}

// refPLoRaDetect is PLoRaDetector.Detect as written before it stepped a
// dsp.SlidingNCC itself: every lag correlated into a slice, then
// dsp.Argmax, which keeps the first of equal maxima.
func refPLoRaDetect(p *PLoRaDetector, env []float64) bool {
	half := p.TemplateSamples / 2
	tmpl := make([]float64, p.TemplateSamples+half)
	for i := half; i < len(tmpl); i++ {
		tmpl[i] = 1
	}
	if len(env) < len(tmpl) {
		return false
	}
	hc, norm := dsp.CenterTemplate(tmpl)
	var ncc dsp.SlidingNCC
	c := make([]float64, ncc.Reset(env, hc, norm))
	for i := range c {
		c[i] = ncc.Next()
	}
	lag, peak := dsp.Argmax(c)
	if peak < p.Threshold {
		return false
	}
	onStart := lag + half
	onEnd := min(onStart+p.TemplateSamples, len(env))
	mean := dsp.Mean(env[onStart:onEnd])
	n := float64(onEnd - onStart)
	if n < 1 {
		return false
	}
	return mean > p.baselineLevel+4*p.noiseSigma/math.Sqrt(n)
}

// TestPLoRaDetectMatchesArgmaxReference holds Detect's running maximum to
// the correlate-then-Argmax reference, ties and NaN included.
func TestPLoRaDetectMatchesArgmaxReference(t *testing.T) {
	// Two exact steps, the second at twice the level, correlate to the
	// same value bit for bit (a power-of-two scale is exact), and only the
	// second clears an energy floor of 1.5. The first maximum must win.
	p := &PLoRaDetector{TemplateSamples: 8, Threshold: 0.55}
	step := func(level float64) []float64 {
		s := make([]float64, 12)
		for i := 4; i < len(s); i++ {
			s[i] = level
		}
		return s
	}
	p.Prepare([]float64{1.5, 1.5})
	tie := append(append(step(1), step(2)...), 0, 0, 0)
	if !p.Detect(step(2)) {
		t.Fatal("the level-2 step alone is not detected; the tie case checks nothing")
	}
	if p.Detect(tie) || refPLoRaDetect(p, tie) {
		t.Error("tied correlation peaks: Detect or the reference took the later peak")
	}

	rng := dsp.NewRand(21, 8)
	for trial := range 400 {
		p := &PLoRaDetector{TemplateSamples: 2 + rng.IntN(30), Threshold: 0.55}
		noise := make([]float64, 64)
		for i := range noise {
			noise[i] = 0.1 * rng.NormFloat64()
		}
		p.Prepare(noise)
		env := make([]float64, rng.IntN(160))
		for i := range env {
			// Small integer levels on even trials make exact ties likely.
			if trial%2 == 0 {
				env[i] = float64(rng.IntN(3))
			} else {
				env[i] = 0.1 * rng.NormFloat64()
			}
		}
		if len(env) > 0 && trial%7 == 0 {
			env[rng.IntN(len(env))] = math.NaN()
		}
		if got, want := p.Detect(env), refPLoRaDetect(p, env); got != want {
			t.Fatalf("trial %d (template %d, %d samples): Detect = %v, reference %v", trial, p.TemplateSamples, len(env), got, want)
		}
	}
}
