package fxp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"saiyan/internal/lora"
)

// adcEdgeInputs returns the envelope values that stress the quantizer's
// rounding and saturation at one ADC: the IEEE specials, subnormals and
// negatives, the values 1 and 2 ULPs either side of every half code (as
// Quantize scales them), the values around 0.49999999999999994 (the
// largest float64 below one half) times FullScale/top, and the values
// around the top code.
func adcEdgeInputs(a ADC) []float64 {
	top := float64(a.Levels() - 1)
	in := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, 0x1p-1022, -1, -a.FullScale, -0.5 * a.FullScale,
		math.MaxFloat64, -math.MaxFloat64,
	}
	around := func(v float64) {
		lo, hi := v, v
		in = append(in, v)
		for i := 0; i < 2; i++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			in = append(in, lo, hi)
		}
	}
	for c := 0.0; c < top; c++ {
		around((c + 0.5) / top * a.FullScale)
	}
	around(a.FullScale)
	around((top - 0.5) / top * a.FullScale)
	around(0.49999999999999994 * a.FullScale / top)
	return in
}

// TestADCQuantizeMatchesCode holds the batch quantizer to the per-sample
// specification, Code, at every bit depth: rounding at and around every
// half code, saturation at both rails, and the IEEE special values.
func TestADCQuantizeMatchesCode(t *testing.T) {
	for bits := 2; bits <= 15; bits++ {
		for _, fs := range []float64{1, 0.4625, 3, 1e-300, 1e300} {
			a, err := NewADC(bits, fs)
			if err != nil {
				t.Fatal(err)
			}
			in := adcEdgeInputs(a)
			got := a.Quantize(nil, in)
			for i, v := range in {
				if want := a.Code(v); got[i] != want {
					t.Errorf("%d bits, full scale %g: Quantize(%g) = %d, Code = %d", bits, fs, v, got[i], want)
				}
			}
		}
	}
}

// TestRoundCodeMatchesRound holds the quantizer's rounding step to
// math.Round with saturation on the scaled values themselves, including
// 0.49999999999999994, which no ADC input scales to exactly but where
// int(x+0.5) alone would read 1.
func TestRoundCodeMatchesRound(t *testing.T) {
	for _, top := range []int{3, 4095, 32767} {
		in := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			math.SmallestNonzeroFloat64, 0.49999999999999994, -0.5, float64(top), 1e300}
		for c := 0; c <= top+1; c++ {
			x := float64(c) - 0.5
			in = append(in, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)), float64(c))
		}
		for _, x := range in {
			want := 0
			switch {
			case x >= float64(top):
				want = top
			case x > 0:
				want = int(math.Round(x))
			}
			if got := roundCode(x, top); got != want {
				t.Errorf("top %d: roundCode(%v) = %d, want %d", top, x, got, want)
			}
		}
	}
}

// FuzzADCQuantize holds Quantize to Code on arbitrary envelope values and
// full-scale ranges.
func FuzzADCQuantize(f *testing.F) {
	f.Add(uint8(12), 2.0, 0.5, 1.0, 2.0)
	f.Add(uint8(15), 1.0, 0.49999999999999994/32767, math.NaN(), math.Inf(1))
	f.Add(uint8(2), 3.0, -1.0, 0.5, 2.5)
	f.Add(uint8(8), 1e-300, 5e-324, 1e-300, -0.0)
	f.Fuzz(func(t *testing.T, bits uint8, fs, v0, v1, v2 float64) {
		a := ADC{Bits: 2 + int(bits)%14, FullScale: fs}
		if a.validate() != nil {
			return
		}
		in := []float64{v0, v1, v2}
		got := a.Quantize(make([]Q15, 1), in)
		for i, v := range in {
			if want := a.Code(v); got[i] != want {
				t.Errorf("%d bits, full scale %g: Quantize(%g) = %d, Code = %d", a.Bits, fs, v, got[i], want)
			}
		}
	})
}

// refTemplates quantizes float templates as the bank does, one Code call
// per sample: scaled to the peak over all templates.
func refTemplates(templates [][]float64, bits int) [][]Q15 {
	peak := 0.0
	for _, tmpl := range templates {
		for _, v := range tmpl {
			peak = max(peak, v)
		}
	}
	a := ADC{Bits: bits, FullScale: peak}
	q := make([][]Q15, len(templates))
	for t, tmpl := range templates {
		for _, v := range tmpl {
			q[t] = append(q[t], a.Code(v))
		}
	}
	return q
}

// decodeCorrelationRef is the correlation decoder as a plain per-template
// loop: one pass for the window statistics, then one MAC pass per template,
// with template statistics rebuilt from the quantized templates. It
// returns the symbols and the operation ledger the decode must charge.
func decodeCorrelationRef(x *Decoder, tq [][]Q15, env []Q15, nSymbols int) ([]int, OpCounts) {
	var ops OpCounts
	out := make([]int, nSymbols)
	length := len(tq[0])
	for s := 0; s < nSymbols; s++ {
		lo, hi := x.bound(s, x.cfg.CorrDecim, len(env)), x.bound(s+1, x.cfg.CorrDecim, len(env))
		if lo >= hi {
			continue
		}
		win := env[lo:hi]
		n := min(len(win), length)
		var sw, swsq int64
		for _, w := range win[:n] {
			sw += int64(w)
			swsq += int64(w) * int64(w)
		}
		nn := uint64(n)
		ops.Load += nn
		ops.Add += nn
		ops.MAC += nn
		if int64(n)*swsq-sw*sw <= 0 {
			continue
		}
		best := 0
		var bestD int64
		var bestS uint64
		for t, tmpl := range tq {
			var swt, st, stsq int64
			for i := 0; i < n; i++ {
				swt += int64(win[i]) * int64(tmpl[i])
				st += int64(tmpl[i])
				stsq += int64(tmpl[i]) * int64(tmpl[i])
			}
			ops.Load += 2 * nn
			ops.MAC += nn
			if n != length {
				ops.Mul += 2
				ops.Add++
				ops.Sqrt++
			}
			sqrtEt := ISqrt64(uint64(int64(n)*stsq - st*st))
			d := int64(n)*swt - sw*st
			ops.Mul += 2
			ops.Add++
			if sqrtEt == 0 {
				d, sqrtEt = 0, 1
			}
			if t == 0 || RatioCmp(d, sqrtEt, bestD, bestS) > 0 {
				best, bestD, bestS = t, d, sqrtEt
			}
			ops.Mul += 2
			ops.Cmp++
		}
		out[s] = best
	}
	return out, ops
}

// correlationCase is one decoder input: float templates and a Q1.15
// envelope of nSymbols windows (fewer when the envelope is cut short).
type correlationCase struct {
	name      string
	templates [][]float64
	env       []Q15
	nSymbols  int
}

// newCorrelationDecoder builds a decoder whose correlator windows are
// length samples long (the geometry the templates fill exactly).
func newCorrelationDecoder(t testing.TB, length, bits int) *Decoder {
	t.Helper()
	d, err := NewDecoder(Config{
		Params:              lora.DefaultParams(),
		SimSamplesPerSymbol: 4 * length,
		SamplerDecim:        4,
		CorrDecim:           4,
		ADCBits:             bits,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// correlationCases draws random and adversarial inputs for T templates of
// the given length: random windows, windows cut short of the last symbol,
// windows equal to a template (ties between duplicated templates), flat
// windows, and falling windows against rising templates (every score
// negative).
func correlationCases(rng *rand.Rand, T, length int) []correlationCase {
	randTemplates := func() [][]float64 {
		ts := make([][]float64, T)
		for t := range ts {
			ts[t] = make([]float64, length)
			for i := range ts[t] {
				ts[t][i] = rng.Float64()
			}
		}
		return ts
	}
	randEnv := func(n int, lo, hi int) []Q15 {
		env := make([]Q15, n)
		for i := range env {
			env[i] = Q15(lo + rng.Intn(hi-lo+1))
		}
		return env
	}
	const nSymbols = 6
	full := nSymbols * length
	var cases []correlationCase

	cases = append(cases, correlationCase{"random", randTemplates(), randEnv(full, 0, int(MaxQ15)), nSymbols})
	cases = append(cases, correlationCase{"signed", randTemplates(), randEnv(full, int(MinQ15), int(MaxQ15)), nSymbols})
	for _, cut := range []int{1, length / 2, length - 1} {
		cases = append(cases, correlationCase{"truncated", randTemplates(), randEnv(full-cut, 0, int(MaxQ15)), nSymbols})
	}
	cases = append(cases, correlationCase{"past the end", randTemplates(), randEnv(2*length+1, 0, int(MaxQ15)), nSymbols})

	// Ties: every template is one of two shapes, and the windows replay
	// those shapes, so several templates score exactly the best value.
	shapes := randTemplates()[:min(T, 2)]
	tied := make([][]float64, T)
	for t := range tied {
		tied[t] = shapes[t%len(shapes)]
	}
	tq := refTemplates(tied, 12)
	var tieEnv []Q15
	for s := 0; s < nSymbols; s++ {
		tieEnv = append(tieEnv, tq[s%len(tq)]...)
	}
	cases = append(cases, correlationCase{"ties", tied, tieEnv, nSymbols})

	flat := make([]Q15, full)
	for i := range flat {
		flat[i] = Q15(1000 * (i / length))
	}
	cases = append(cases, correlationCase{"flat", randTemplates(), flat, nSymbols})

	rising := make([][]float64, T)
	for t := range rising {
		rising[t] = make([]float64, length)
		for i := range rising[t] {
			rising[t][i] = float64(i+1) + float64(t)*rng.Float64()*float64(length)
		}
	}
	falling := make([]Q15, full)
	for i := range falling {
		falling[i] = Q15(30000 - 30000*(i%length)/length)
	}
	cases = append(cases, correlationCase{"all negative", rising, falling, nSymbols})
	return cases
}

// TestDecodeCorrelationMatchesReference holds DecodeCorrelation to the
// per-template reference loop, symbol for symbol and in its operation
// ledger, for 1 to 9 templates.
func TestDecodeCorrelationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for T := 1; T <= 9; T++ {
		for _, length := range []int{1, 2, 7, 26} {
			for _, c := range correlationCases(rng, T, length) {
				d := newCorrelationDecoder(t, length, 12)
				if err := d.SetTemplates(c.templates); err != nil {
					t.Fatal(err)
				}
				want, wantOps := decodeCorrelationRef(d, refTemplates(c.templates, 12), c.env, c.nSymbols)
				// Storage left dirty by an earlier decode: every symbol
				// must be written, erasures included.
				got := slices.Repeat([]int{-1}, c.nSymbols)
				d.DecodeCorrelation(got, c.env)
				if !slices.Equal(got, want) {
					t.Errorf("T=%d length %d %s: symbols %v, want %v", T, length, c.name, got, want)
				}
				if d.ops != wantOps {
					t.Errorf("T=%d length %d %s: ledger %+v, want %+v", T, length, c.name, d.ops, wantOps)
				}
				if got, want := d.TakeCycles(), d.cfg.Model.Cycles(wantOps); got != want {
					t.Errorf("T=%d length %d %s: %d cycles, want %d", T, length, c.name, got, want)
				}
			}
		}
	}
}

// BenchmarkADCQuantize quantizes a 4096-sample envelope at 12 bits, with
// a tenth of the samples beyond full scale.
func BenchmarkADCQuantize(b *testing.B) {
	a, err := NewADC(12, 1.25)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	env := make([]float64, 4096)
	for i := range env {
		env[i] = rng.Float64() * 1.1 * a.FullScale
	}
	dst := make([]Q15, len(env))
	b.SetBytes(int64(len(env)) * 8)
	for b.Loop() {
		dst = a.Quantize(dst, env)
	}
}

// BenchmarkDecodeCorrelation decodes 16 payload symbols at the default
// correlator geometry's window length (about 26 samples per bit of K) for
// K = 1, 2 and 3, with the last window cut short.
func BenchmarkDecodeCorrelation(b *testing.B) {
	const nSymbols = 16
	for k := 1; k <= 3; k++ {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			T, length := 1<<k, 26<<(k-1)
			rng := rand.New(rand.NewSource(int64(k)))
			templates := make([][]float64, T)
			for t := range templates {
				templates[t] = make([]float64, length)
				for i := range templates[t] {
					templates[t][i] = 1 + math.Sin(2*math.Pi*float64(i*(t+1))/float64(length))
				}
			}
			d := newCorrelationDecoder(b, length, 12)
			if err := d.SetTemplates(templates); err != nil {
				b.Fatal(err)
			}
			env := make([]Q15, nSymbols*length-length/3)
			for i := range env {
				env[i] = Q15(rng.Intn(int(MaxQ15)))
			}
			out := make([]int, nSymbols)
			for b.Loop() {
				d.DecodeCorrelation(out, env)
			}
			d.TakeCycles()
		})
	}
}
