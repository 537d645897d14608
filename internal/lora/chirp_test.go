package lora

import (
	"math"
	"testing"
	"testing/quick"

	"saiyan/internal/dsp"
)

// practicalRate is the envelope sampling rate Saiyan settles on,
// 3.2*BW/2^(SF-K) (the Table 1 benchmark's conservative setting).
func practicalRate(p Params) float64 {
	return 3.2 * p.BandwidthHz / float64(p.AlphabetStride())
}

func TestFreqTrajectoryRange(t *testing.T) {
	p := DefaultParams()
	fs := 8 * practicalRate(p)
	for s := 0; s < p.AlphabetSize(); s++ {
		tr := p.FreqTrajectory(nil, p.SymbolValue(s), fs)
		if len(tr) != p.SamplesPerSymbol(fs) {
			t.Fatalf("len = %d, want %d", len(tr), p.SamplesPerSymbol(fs))
		}
		for i, f := range tr {
			if f < 0 || f >= p.BandwidthHz {
				t.Fatalf("symbol %d: trajectory[%d] = %g outside [0, BW)", s, i, f)
			}
		}
	}
}

func TestFreqTrajectoryWrapPoint(t *testing.T) {
	// The wrap (max->0 discontinuity) must occur at PeakFraction.
	p := Params{SF: 7, BandwidthHz: Bandwidth500k, K: 2, CarrierHz: DefaultCarrierHz}
	fs := 32 * practicalRate(p)
	for s := 1; s < p.AlphabetSize(); s++ {
		m := p.SymbolValue(s)
		tr := p.FreqTrajectory(nil, m, fs)
		wrapAt := -1
		for i := 1; i < len(tr); i++ {
			if tr[i] < tr[i-1] {
				wrapAt = i
				break
			}
		}
		if wrapAt < 0 {
			t.Fatalf("symbol %d: no wrap found", s)
		}
		got := float64(wrapAt) / float64(len(tr))
		want := p.PeakFraction(m)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("symbol %d: wrap at %g, want %g", s, got, want)
		}
	}
}

func TestFreqTrajectoryStartOffsetProperty(t *testing.T) {
	// Property: the first sample equals m/2^SF*BW for every m.
	f := func(seed uint64) bool {
		p := DefaultParams()
		p.SF = 7 + int(seed%6)
		m := int(seed % uint64(p.ChirpCount()))
		tr := p.FreqTrajectory(nil, m, 4*practicalRate(p))
		want := float64(m) / float64(p.ChirpCount()) * p.BandwidthHz
		return math.Abs(tr[0]-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIQUnitModulus(t *testing.T) {
	p := DefaultParams()
	iq := p.IQ(nil, 37, p.BandwidthHz)
	for i, v := range iq {
		if math.Abs(real(v)*real(v)+imag(v)*imag(v)-1) > 1e-9 {
			t.Fatalf("sample %d modulus %v != 1", i, v)
		}
	}
}

func TestDechirpConcentratesEnergy(t *testing.T) {
	// Multiplying chirp m by the conjugate base chirp must concentrate
	// energy into FFT bin m — the fundamental CSS property the standard
	// receiver relies on.
	p := DefaultParams()
	fs := p.BandwidthHz
	down := p.Downchirp(nil, fs)
	for _, m := range []int{0, 1, 31, 64, 127} {
		iq := p.IQ(nil, m, fs)
		buf := make([]complex128, dsp.NextPow2(len(iq)))
		for i := range iq {
			buf[i] = iq[i] * down[i]
		}
		dsp.FFT(buf)
		k, _ := dsp.ArgmaxAbs(buf)
		if k != m {
			t.Errorf("chirp %d dechirped to bin %d", m, k)
		}
	}
}

func TestSamplesPerSymbolPositive(t *testing.T) {
	p := DefaultParams()
	if n := p.SamplesPerSymbol(1); n < 1 {
		t.Errorf("SamplesPerSymbol clamp failed: %d", n)
	}
}
