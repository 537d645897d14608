package lora

import (
	"math"
	"testing"
	"testing/quick"

	"saiyan/internal/dsp"
)

func TestNewFrameValidates(t *testing.T) {
	p := DefaultParams() // K=1, alphabet {0,1}
	if _, err := NewFrame(p, []int{0, 1, 0}); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	if _, err := NewFrame(p, []int{0, 2}); err == nil {
		t.Error("out-of-alphabet symbol accepted")
	}
	bad := p
	bad.SF = 99
	if _, err := NewFrame(bad, []int{0}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestNewFrameCopiesPayload(t *testing.T) {
	p := DefaultParams()
	payload := []int{0, 1}
	f, err := NewFrame(p, payload)
	if err != nil {
		t.Fatal(err)
	}
	payload[0] = 1
	if f.Payload[0] != 0 {
		t.Error("frame aliased caller's payload")
	}
}

func TestPayloadBitsRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := dsp.NewRand(seed, 23)
		p := DefaultParams()
		p.K = 1 + rng.IntN(5)
		syms := make([]int, 8)
		for i := range syms {
			syms[i] = rng.IntN(p.AlphabetSize())
		}
		fr, err := NewFrame(p, syms)
		if err != nil {
			return false
		}
		back := SymbolsFromBits(p, fr.PayloadBits())
		if len(back) != len(syms) {
			return false
		}
		for i := range syms {
			if back[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameDurations(t *testing.T) {
	p := DefaultParams() // SF7 BW500: T = 256 us
	fr, _ := NewFrame(p, make([]int, 32))
	want := (10 + 2.25 + 32) * 256e-6
	if d := fr.Duration(); math.Abs(d-want) > 1e-12 {
		t.Errorf("frame duration = %g, want %g", d, want)
	}
}

func TestFrameTrajectoryLayout(t *testing.T) {
	p := DefaultParams()
	fr, _ := NewFrame(p, []int{1, 0})
	fs := 8 * practicalRate(p)
	tr := fr.FreqTrajectory(nil, fs)
	spb := p.SamplesPerSymbol(fs)
	wantLen := 12*spb + int(math.Round(2.25*float64(spb)))
	if len(tr) != wantLen {
		t.Fatalf("trajectory length %d, want %d", len(tr), wantLen)
	}
	// Preamble symbols are base up-chirps starting at 0 Hz offset.
	if tr[0] != 0 {
		t.Errorf("preamble starts at %g, want 0", tr[0])
	}
	// Payload offset lands exactly where the first payload chirp begins.
	off := fr.PayloadOffsetSamples(fs)
	wantStart := float64(p.SymbolValue(1)) / float64(p.ChirpCount()) * p.BandwidthHz
	if math.Abs(tr[off]-wantStart) > 1e-6 {
		t.Errorf("payload[0] starts at %g Hz, want %g", tr[off], wantStart)
	}
}

func TestCountBitErrors(t *testing.T) {
	errs, total := CountBitErrors([]int{0b101, 0b010}, []int{0b100, 0b010}, 3)
	if errs != 1 || total != 6 {
		t.Errorf("got (%d,%d), want (1,6)", errs, total)
	}
	// Missing tail counts fully as errors.
	errs, total = CountBitErrors([]int{7, 7}, []int{7}, 3)
	if errs != 3 || total != 6 {
		t.Errorf("missing tail: got (%d,%d), want (3,6)", errs, total)
	}
	errs, total = CountBitErrors(nil, nil, 3)
	if errs != 0 || total != 0 {
		t.Errorf("empty: got (%d,%d), want (0,0)", errs, total)
	}
}

func TestSymbolsFromBitsPadding(t *testing.T) {
	p := DefaultParams()
	p.K = 3
	syms := SymbolsFromBits(p, []int{1, 0, 1, 1}) // 4 bits -> 2 symbols, padded
	if len(syms) != 2 {
		t.Fatalf("len = %d, want 2", len(syms))
	}
	if syms[0] != 0b101 || syms[1] != 0b100 {
		t.Errorf("syms = %v, want [5 4]", syms)
	}
}
