package lora

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{SF: 4, BandwidthHz: Bandwidth500k, K: 1, CarrierHz: DefaultCarrierHz},
		{SF: 13, BandwidthHz: Bandwidth500k, K: 1, CarrierHz: DefaultCarrierHz},
		{SF: 7, BandwidthHz: 0, K: 1, CarrierHz: DefaultCarrierHz},
		{SF: 7, BandwidthHz: Bandwidth500k, K: 0, CarrierHz: DefaultCarrierHz},
		{SF: 7, BandwidthHz: Bandwidth500k, K: 8, CarrierHz: DefaultCarrierHz},
		{SF: 7, BandwidthHz: Bandwidth500k, K: 1, CarrierHz: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: %+v validated but should not", i, p)
		}
	}
}

func TestDerivedQuantitiesPaperValues(t *testing.T) {
	// Paper Section 5: SF=7, BW=500 kHz -> symbol time 256 us. Figure 16:
	// CR=5 throughput ~19.5 kbps.
	p := Params{SF: 7, BandwidthHz: Bandwidth500k, K: 5, CarrierHz: DefaultCarrierHz}
	if d := p.SymbolDuration(); math.Abs(d-256e-6) > 1e-12 {
		t.Errorf("symbol duration = %g, want 256us", d)
	}
	if r := p.BitRate(); math.Abs(r-19531.25) > 0.01 {
		t.Errorf("bit rate = %g, want 19531.25", r)
	}
	// Table 1 check: SF=7, K=1 theory 15.6 kHz.
	p1 := Params{SF: 7, BandwidthHz: Bandwidth500k, K: 1, CarrierHz: DefaultCarrierHz}
	if r := p1.NyquistSampleRate(); math.Abs(r-15625) > 1e-9 {
		t.Errorf("nyquist rate = %g, want 15625", r)
	}
	// Table 1: SF=12, K=1 theory 0.49 kHz.
	p2 := Params{SF: 12, BandwidthHz: Bandwidth500k, K: 1, CarrierHz: DefaultCarrierHz}
	if r := p2.NyquistSampleRate(); math.Abs(r-488.28125) > 1e-6 {
		t.Errorf("SF12 nyquist = %g, want 488.28", r)
	}
}

func TestTable1TheoryColumn(t *testing.T) {
	// Reproduce the theory column of Table 1 exactly (values in kHz).
	want := map[[2]int]float64{ // {K, SF} -> kHz
		{1, 7}: 15.6, {1, 8}: 7.8, {1, 9}: 3.9, {1, 10}: 1.95, {1, 11}: 0.98, {1, 12}: 0.49,
		{3, 7}: 62.5, {3, 9}: 15.6, {5, 7}: 250, {5, 12}: 7.8,
	}
	for ks, kHz := range want {
		p := Params{SF: ks[1], BandwidthHz: Bandwidth500k, K: ks[0], CarrierHz: DefaultCarrierHz}
		got := p.NyquistSampleRate() / 1000
		if math.Abs(got-kHz)/kHz > 0.02 {
			t.Errorf("K=%d SF=%d: theory rate %.3f kHz, want %.3f", ks[0], ks[1], got, kHz)
		}
	}
}

func TestSymbolValueRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		p := DefaultParams()
		p.SF = 7 + int(seed%6)
		p.K = 1 + int(seed/7%uint64(min(5, p.SF)))
		for s := 0; s < p.AlphabetSize(); s++ {
			if p.NearestSymbol(float64(p.SymbolValue(s))) != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNearestSymbolWraps(t *testing.T) {
	p := DefaultParams() // SF7 K1: alphabet {0, 64}, wrap at 128
	if s := p.NearestSymbol(127.9); s != 0 {
		t.Errorf("127.9 -> %d, want 0 (wraps)", s)
	}
	if s := p.NearestSymbol(-0.4); s != 0 {
		t.Errorf("-0.4 -> %d, want 0", s)
	}
	if s := p.NearestSymbol(60); s != 1 {
		t.Errorf("60 -> %d, want 1", s)
	}
}

func TestPeakFractionInverse(t *testing.T) {
	p := Params{SF: 9, BandwidthHz: 250e3, K: 3, CarrierHz: DefaultCarrierHz}
	for s := 0; s < p.AlphabetSize(); s++ {
		m := p.SymbolValue(s)
		frac := p.PeakFraction(m)
		if frac < 0 || frac >= 1 {
			t.Fatalf("peak fraction %g outside [0,1)", frac)
		}
		back := p.PositionFromPeak(frac)
		if got := p.NearestSymbol(back); got != s {
			t.Errorf("symbol %d: peak %g -> position %g -> symbol %d", s, frac, back, got)
		}
	}
}

func TestPeakOrderingMatchesPaperFigure6(t *testing.T) {
	// Figure 6: symbols with larger initial offsets peak *earlier* in the
	// symbol window (frequency reaches the top of the band sooner).
	p := Params{SF: 7, BandwidthHz: Bandwidth500k, K: 2, CarrierHz: DefaultCarrierHz}
	prev := 2.0
	for s := 1; s < p.AlphabetSize(); s++ { // skip 0 which peaks at the end
		frac := p.PeakFraction(p.SymbolValue(s))
		if frac >= prev {
			t.Errorf("symbol %d peak fraction %g not earlier than previous %g", s, frac, prev)
		}
		prev = frac
	}
	if f0 := p.PeakFraction(0); math.Abs(f0-1) > 1e-9 && f0 != 0 {
		// m=0 peaks exactly at the window end (fraction ~1, wraps to 0).
		t.Errorf("symbol 0 peak fraction = %g, want end of window", f0)
	}
}

func TestStringFormat(t *testing.T) {
	p := Params{SF: 8, BandwidthHz: Bandwidth125k, K: 2, CarrierHz: DefaultCarrierHz}
	if got := p.String(); got != "SF8/BW125kHz/CR2" {
		t.Errorf("String() = %q", got)
	}
}
