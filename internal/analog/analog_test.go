package analog

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"saiyan/internal/dsp"
)

func TestSAWPaperAnchors(t *testing.T) {
	s := PaperSAW()
	// Figure 5's quoted amplitude gaps.
	cases := []struct {
		bw   float64
		want float64
	}{
		{500e3, 25}, {250e3, 9.5}, {125e3, 7.2},
	}
	for _, c := range cases {
		if got := s.AmplitudeGapDB(c.bw); math.Abs(got-c.want) > 0.01 {
			t.Errorf("gap(%g kHz) = %g dB, want %g", c.bw/1000, got, c.want)
		}
	}
	if il := s.InsertionLossDB(); math.Abs(il-10) > 0.01 {
		t.Errorf("insertion loss = %g dB, want 10", il)
	}
}

func TestSAWMonotoneInCriticalBand(t *testing.T) {
	s := PaperSAW()
	prev := math.Inf(-1)
	for f := 433.5e6; f <= 434.0e6; f += 10e3 {
		r := s.ResponseDB(f)
		if r < prev {
			t.Fatalf("response not monotone at %g MHz: %g < %g", f/1e6, r, prev)
		}
		prev = r
	}
}

func TestSAWClampsOutsideAnchors(t *testing.T) {
	s := PaperSAW()
	if s.ResponseDB(100e6) != -60 || s.ResponseDB(900e6) != -60 {
		t.Error("out-of-range frequencies should clamp to the edge anchors")
	}
}

func TestSAWDriftShiftsResponse(t *testing.T) {
	s := PaperSAW()
	base := s.ResponseDB(433.8e6)
	s.SetDrift(-200e3) // band moved down 200 kHz (hot device)
	shifted := s.ResponseDB(433.8e6 - 200e3)
	if math.Abs(base-shifted) > 1e-9 {
		t.Errorf("drifted response mismatch: %g vs %g", base, shifted)
	}
	if s.Drift() != -200e3 {
		t.Errorf("Drift() = %g", s.Drift())
	}
	// Drift shrinks the measured gap because the chirp band no longer ends
	// exactly at the response top.
	s.SetDrift(0)
	gap0 := s.AmplitudeGapDB(500e3)
	s.SetDrift(-400e3)
	top := CriticalBandTopHz // chirp band stays fixed; response moved down
	gapDrift := s.ResponseDB(top) - s.ResponseDB(top-500e3)
	if gapDrift >= gap0 {
		t.Errorf("drift should shrink the usable gap: %g >= %g", gapDrift, gap0)
	}
}

func TestNewSAWFilterValidation(t *testing.T) {
	if _, err := NewSAWFilter(nil); err == nil {
		t.Error("empty anchor list accepted")
	}
	if _, err := NewSAWFilter([]SAWPoint{{2, 0}, {1, 0}}); err == nil {
		t.Error("unsorted anchors accepted")
	}
}

func TestSAWTransformTracksFrequency(t *testing.T) {
	s := PaperSAW()
	freqs := []float64{433.5e6, 433.75e6, 434.0e6}
	amps := make([]float64, len(freqs))
	for i, f := range freqs {
		amps[i] = s.Gain(f)
	}
	if !(amps[0] < amps[1] && amps[1] < amps[2]) {
		t.Errorf("amplitudes %v not increasing with frequency", amps)
	}
	// Linear gain must match the dB response.
	want := dsp.AmpFromDB(s.ResponseDB(433.75e6))
	if math.Abs(amps[1]-want) > 1e-12 {
		t.Errorf("gain = %g, want %g", amps[1], want)
	}
}

func TestEnvelopeDetectorSquareLaw(t *testing.T) {
	e := EnvelopeDetector{ScaleK: 2}
	x := []complex128{complex(3, 4), complex(0, 1)}
	y := e.Detect(nil, x)
	if math.Abs(y[0]-50) > 1e-12 || math.Abs(y[1]-2) > 1e-12 {
		t.Errorf("y = %v, want [50 2]", y)
	}
	// Zero ScaleK defaults to 1.
	e0 := EnvelopeDetector{}
	if y := e0.Detect(nil, x); math.Abs(y[0]-25) > 1e-12 {
		t.Errorf("default k: y[0] = %g, want 25", y[0])
	}
}

func TestEnvelopeSelfMixingPenalty(t *testing.T) {
	// Square-law small-signal suppression: halving the input SNR must cost
	// MORE than a factor of two in output SNR when noise self-mixing
	// dominates. This is the physics behind the paper's Eq. (4).
	rng := dsp.NewRand(12, 13)
	e := EnvelopeDetector{ScaleK: 1}
	outSNR := func(inSNRdB float64) float64 {
		n := 1 << 15
		x := make([]complex128, n)
		amp := math.Sqrt(dsp.FromDB(inSNRdB))
		for i := range x {
			x[i] = complex(amp, 0)
		}
		dsp.AddComplexNoise(x, 1, rng)
		y := e.Detect(nil, x)
		// The informative term is A^2 = mean(y) minus the unit noise
		// power folded in by |n|^2; the fluctuation is var(y).
		sig := dsp.Mean(y) - 1
		return dsp.DB(sig * sig / dsp.Variance(y))
	}
	// Analytically SNR_out = A^4/(2A^2+1): a 15 dB input drop should cost
	// ~16.7 dB at the output (more than 1:1 — the square-law penalty).
	drop := outSNR(15) - outSNR(0)
	if drop < 15.5 {
		t.Errorf("15 dB input drop cost only %g dB at output; want > 15.5 (square-law penalty)", drop)
	}
}

func TestAddBasebandImpairments(t *testing.T) {
	e := DefaultEnvelopeDetector()
	rng := dsp.NewRand(3, 9)
	y := make([]float64, 4096)
	e.AddBasebandImpairments(y, nil, 400e3, rng)
	// 1/f noise converges slowly, so the sample mean can sit a sizable
	// fraction of FlickerSigma away from the DC offset.
	if m := dsp.Mean(y); math.Abs(m-e.DCOffset) > e.FlickerSigma {
		t.Errorf("mean = %g, want within one flicker sigma of DC offset %g", m, e.DCOffset)
	}
	if v := dsp.Variance(y); v < 0.25*e.FlickerSigma*e.FlickerSigma {
		t.Errorf("variance = %g, want flicker noise present (sigma %g)", v, e.FlickerSigma)
	}
}

func TestComparatorHysteresis(t *testing.T) {
	c := Comparator[float64]{High: 1.0, Low: 0.5}
	// Rises above High, dips to between Low and High (stays high), falls
	// below Low (goes low), chatters below High (stays low).
	x := []float64{0, 0.6, 1.2, 0.7, 1.1, 0.4, 0.9, 0.3}
	want := []bool{false, false, true, true, true, false, false, false}
	got := c.Quantize(nil, x)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d: got %v, want %v (x=%g)", i, got[i], want[i], x[i])
		}
	}
}

func TestComparatorEquationThree(t *testing.T) {
	// Property: the output never rises without crossing High and never
	// falls without crossing below Low — Eq. (3) verbatim.
	f := func(seed uint64) bool {
		rng := dsp.NewRand(seed, 41)
		c := Comparator[float64]{High: 0.8, Low: 0.3}
		x := make([]float64, 200)
		for i := range x {
			x[i] = rng.Float64() * 1.2
		}
		b := c.Quantize(nil, x)
		prev := false
		for i, s := range b {
			if s && !prev && x[i] < c.High {
				return false
			}
			if !s && prev && x[i] >= c.Low {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleThresholdBeatsSingleOnChatter(t *testing.T) {
	// Figure 7's scenario: an envelope with a misleading bump and a valley
	// near the peak. The single thresholds chatter; the double threshold
	// yields exactly one high run.
	x := []float64{
		0.1, 0.15, 0.45, 0.5, 0.42, 0.2, // misleading bump (above U_L)
		0.3, 0.6, 0.85, 0.75, 0.65, 0.9, 0.95, // peak with a valley (dips below U_H)
		0.2, 0.1, 0.05,
	}
	uh, ul := 0.8, 0.4
	double := Comparator[float64]{High: uh, Low: ul}
	if n := Transitions(double.Quantize(nil, x)); n != 1 {
		t.Errorf("double threshold rising edges = %d, want 1", n)
	}
	if n := Transitions(Comparator[float64]{High: uh, Low: uh}.Quantize(nil, x)); n < 2 {
		t.Errorf("single U_H rising edges = %d, want >= 2 (valley chatter)", n)
	}
	if n := Transitions(Comparator[float64]{High: ul, Low: ul}.Quantize(nil, x)); n < 2 {
		t.Errorf("single U_L rising edges = %d, want >= 2 (false bump)", n)
	}
}

func TestLastHighIndex(t *testing.T) {
	b := []bool{false, true, true, false, true, false}
	if i, ok := LastHighIndex(b); !ok || i != 4 {
		t.Errorf("got (%d,%v), want (4,true)", i, ok)
	}
	if _, ok := LastHighIndex([]bool{false, false}); ok {
		t.Error("all-low stream reported a high sample")
	}
}

// TestPeakEdges walks the classifier through each case on hand-built
// windows: own mid-window edges (the last one wins), boundary-region edges
// on both sides of a boundary, a window high at its end, an erasure and an
// empty window.
func TestPeakEdges(t *testing.T) {
	bits := make([]bool, 35)
	for _, i := range []int{3, 4, 7, 8, 9, 10, 12, 13, 14, 15, 16, 17, 18, 29, 30, 32} {
		bits[i] = true
	}
	bounds := []int{0, 10, 20, 25, 25, 35}
	want := []PeakEdge{
		{Edge: 4, Len: 10, Own: true, Boundary: true}, // own edge, high at end, edge 0 of the next window
		{Len: 10, Boundary: true},                     // edge 8 is within two samples of the end
		{Len: 5},                                      // erasure
		{Len: 0},                                      // empty window
		{Edge: 7, Len: 10, Own: true},                 // edges 5 and 7: the last one wins
	}
	got := PeakEdges(nil, bits, bounds)
	if !slices.Equal(got, want) {
		t.Fatalf("PeakEdges = %+v, want %+v", got, want)
	}
	// A reused buffer is overwritten entry by entry, not accumulated into.
	dst := []PeakEdge{{Edge: 9, Own: true, Boundary: true}, {Boundary: true}, {Own: true}, {Own: true}, {Own: true}, {Own: true}}
	if got := PeakEdges(dst, bits, bounds); !slices.Equal(got, want) || &got[0] != &dst[0] {
		t.Fatalf("PeakEdges into a reused buffer = %+v, want %+v in place", got, want)
	}
	if got := PeakEdges(nil, bits, nil); len(got) != 0 {
		t.Fatalf("PeakEdges with no bounds = %+v, want none", got)
	}
}

// TestOscillatorToneAndMix checks the oscillator's clock tables against
// the per-sample cosine they replace, then mixes with them: a tone mixed
// with itself yields cos^2 with mean 1/2, and a real clock halves complex
// power.
func TestOscillatorToneAndMix(t *testing.T) {
	for _, period := range []int{4, 8} {
		for _, phase := range []float64{0, 0.3} {
			tab := ClockTable(period, phase)
			w := 2 * math.Pi / float64(period)
			for i := range 4096 {
				if got, want := tab[i%period], math.Cos(w*float64(i)+phase); math.Abs(got-want) > 1e-12 {
					t.Fatalf("period %d phase %g: sample %d = %v, cosine %v", period, phase, i, got, want)
				}
			}
		}
	}
	tab := ClockTable(8, 0)
	x := make([]float64, 4096)
	for i := range x {
		x[i] = tab[i%8] * tab[i%8]
	}
	if m := dsp.Mean(x); math.Abs(m-0.5) > 1e-12 {
		t.Errorf("mean of cos^2 = %g, want 0.5", m)
	}
	xc := make([]complex128, 4096)
	for i := range xc {
		xc[i] = complex(tab[i%8], 0)
	}
	if p := dsp.ComplexPower(xc); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("mixed power = %g, want 0.5", p)
	}
}

func TestIFAmplifierGain(t *testing.T) {
	if g := (IFAmplifier{GainDB: 20}).Gain(); math.Abs(g-10) > 1e-12 {
		t.Errorf("20 dB gain = %g, want 10", g)
	}
	if g := (IFAmplifier{GainDB: -6}).Gain(); math.Abs(g-0.501187) > 1e-6 {
		t.Errorf("-6 dB gain = %g, want 0.501187", g)
	}
}

func TestSamplerDecimation(t *testing.T) {
	s := Sampler{Oversample: 4}
	if s.Phase() != 2 {
		t.Fatalf("Phase = %d, want 2 (mid-window)", s.Phase())
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i)
	}
	// A one-tap unit filter exposes the grid itself.
	if got := s.SampleFiltered(nil, x, dsp.NewFIR([]float64{1})); !slices.Equal(got, []float64{2, 6, 10, 14}) {
		t.Errorf("grid = %v, want [2 6 10 14]", got)
	}
	// SampleFiltered reads a filter's output on the same grid.
	f := dsp.NewFIR([]float64{0.25, 0.5, 0.25})
	want := dsp.Decimate(nil, f.ApplyDecimated(nil, x, 1, 0), 4, 2)
	got := s.SampleFiltered(nil, x, f)
	if len(got) != len(want) {
		t.Fatalf("SampleFiltered len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("SampleFiltered[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestDefaultConstructors(t *testing.T) {
	if l := DefaultLNA(); l.GainDB <= 0 || l.NoiseFigureDB <= 0 {
		t.Error("DefaultLNA not positive")
	}
	if a := DefaultIFAmplifier(); a.GainDB <= 0 {
		t.Error("DefaultIFAmplifier not positive")
	}
	e := DefaultEnvelopeDetector()
	if e.FlickerSigma <= 0 || e.DCOffset <= 0 {
		t.Error("DefaultEnvelopeDetector impairments missing")
	}
}
