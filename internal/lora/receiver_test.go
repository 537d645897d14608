package lora

import (
	"testing"

	"saiyan/internal/dsp"
)

func TestReceiverRejectsInvalidParams(t *testing.T) {
	p := DefaultParams()
	p.SF = 0
	if _, err := NewReceiver(p, Bandwidth500k); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestReceiverAllSymbolsNoiseless(t *testing.T) {
	p := Params{SF: 7, BandwidthHz: Bandwidth500k, K: 3, CarrierHz: DefaultCarrierHz}
	rx, err := NewReceiver(p, p.BandwidthHz)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < p.AlphabetSize(); s++ {
		iq := p.IQ(nil, p.SymbolValue(s), p.BandwidthHz)
		got, _ := rx.DemodSymbol(iq)
		if got != s {
			t.Errorf("symbol %d demodulated as %d", s, got)
		}
	}
}

func TestReceiverUnderNoise(t *testing.T) {
	// At 0 dB SNR a CSS symbol with SF7 should still demodulate almost
	// always (processing gain ~21 dB).
	p := DefaultParams()
	rx, err := NewReceiver(p, p.BandwidthHz)
	if err != nil {
		t.Fatal(err)
	}
	rng := dsp.NewRand(77, 78)
	errs := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		s := rng.IntN(p.AlphabetSize())
		iq := p.IQ(nil, p.SymbolValue(s), p.BandwidthHz)
		dsp.AddComplexNoise(iq, 1.0, rng) // signal power 1, noise power 1
		got, _ := rx.DemodSymbol(iq)
		if got != s {
			errs++
		}
	}
	if errs > trials/50 {
		t.Errorf("symbol errors at 0 dB SNR: %d/%d, want < 2%%", errs, trials)
	}
}

func BenchmarkStandardReceiverSymbol(b *testing.B) {
	p := DefaultParams()
	rx, err := NewReceiver(p, p.BandwidthHz)
	if err != nil {
		b.Fatal(err)
	}
	iq := p.IQ(nil, 37, p.BandwidthHz)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx.DemodSymbol(iq)
	}
}
