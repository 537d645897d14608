package fxp

import (
	"fmt"

	"saiyan/internal/analog"
	"saiyan/internal/lora"
)

// Config assembles an integer decoder. The geometry fields mirror the float
// demodulator's so both datapaths cut identical symbol windows from the
// same envelope streams.
type Config struct {
	Params lora.Params
	// SimSamplesPerSymbol is the integer per-symbol sample count at the
	// analog simulation rate — the quantity decode windows derive from so
	// symbol boundaries never drift over long frames.
	SimSamplesPerSymbol int
	// SamplerDecim is the simulation-to-sampler decimation factor (the
	// comparator stream the peak-tracking decoder reads).
	SamplerDecim int
	// CorrDecim is the simulation-to-correlator decimation factor (the
	// higher-rate stream the correlation decoder reads).
	CorrDecim int
	// ADCBits is the quantizer resolution at the analog/digital boundary.
	ADCBits int
	// Model prices operations in cycles; zero value = DefaultCycleModel.
	Model CycleModel
}

func (c Config) validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.SimSamplesPerSymbol < 1 {
		return fmt.Errorf("fxp: %d simulation samples per symbol < 1", c.SimSamplesPerSymbol)
	}
	if c.SamplerDecim < 1 || c.CorrDecim < 1 {
		return fmt.Errorf("fxp: decimation factors %d/%d must be >= 1", c.SamplerDecim, c.CorrDecim)
	}
	if _, err := NewADC(c.ADCBits, 1); err != nil {
		return err
	}
	return nil
}

// Decoder is the integer twin of the float demodulator's two payload decode
// paths. Build one with NewDecoder, push the float calibration into it with
// SetThresholds / SetPeakBias / SetTemplates, then decode quantized windows
// with DecodePeakTracking / DecodeCorrelation.
//
// Like its float counterpart a Decoder is not safe for concurrent use;
// Clone one per goroutine. Clones share the immutable template bank and
// carry private scratch buffers and operation ledgers.
type Decoder struct {
	cfg Config
	adc ADC // window quantizer; full scale tracks calibration

	comp    analog.Comparator[Q15] // Eq. (3) thresholds as ADC codes
	biasQ15 int64                  // peak-tracking falling-edge bias, Q1.15 symbol fractions

	bank *templateBank // quantized correlation templates (shared, read-only)

	ops        OpCounts
	scratchQ   []Q15
	scratchBit []bool
	// The peak tracker's symbol window bounds and analog.PeakEdges output.
	scratchBounds []int
	scratchEdges  []analog.PeakEdge
}

// NewDecoder validates cfg and returns an uncalibrated decoder.
func NewDecoder(cfg Config) (*Decoder, error) {
	if cfg.Model.isZero() {
		cfg.Model = DefaultCycleModel()
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Decoder{cfg: cfg, adc: ADC{Bits: cfg.ADCBits, FullScale: 1}}, nil
}

// SetThresholds re-anchors the ADC full scale and quantizes the float
// comparator thresholds onto it. Called whenever the float side
// (re)calibrates — per distance quantum offline, or per window under AGC.
func (x *Decoder) SetThresholds(high, low, fullScale float64) {
	if !(fullScale > 0) {
		fullScale = 1
	}
	x.adc = ADC{Bits: x.cfg.ADCBits, FullScale: fullScale}
	x.comp = analog.Comparator[Q15]{High: x.adc.Code(high), Low: x.adc.Code(low)}
}

// SetPeakBias quantizes the calibrated falling-edge lag (a fraction of the
// symbol duration) to Q1.15.
func (x *Decoder) SetPeakBias(bias float64) {
	x.biasQ15 = int64(roundQ15(bias))
}

// roundQ15 converts a float fraction to Q1.15 with round-to-nearest.
func roundQ15(v float64) int32 {
	f := v * float64(OneQ15)
	if f >= 0 {
		return int32(f + 0.5)
	}
	return int32(f - 0.5)
}

// SetTemplates quantizes the float correlation templates into the shared
// bank. Template shapes are RSS independent and correlation is
// scale-invariant, so the bank is built once per calibration lineage (the
// master builds it; clones share it). All templates must have equal length.
func (x *Decoder) SetTemplates(templates [][]float64) error {
	bank, err := newTemplateBank(templates, x.cfg.ADCBits)
	if err != nil {
		return err
	}
	x.bank = bank
	return nil
}

// HasTemplates reports whether the correlation bank has been built.
func (x *Decoder) HasTemplates() bool { return x.bank != nil }

// Clone returns an independent decoder sharing the immutable template bank:
// private scratch, private operation ledger, same calibration.
func (x *Decoder) Clone() *Decoder {
	return &Decoder{
		cfg:     x.cfg,
		adc:     x.adc,
		comp:    x.comp,
		biasQ15: x.biasQ15,
		bank:    x.bank,
	}
}

// Quantize runs the envelope window through the ADC into the decoder's
// scratch buffer. The returned slice is valid until the next Quantize.
func (x *Decoder) Quantize(env []float64) []Q15 {
	x.scratchQ = x.adc.Quantize(x.scratchQ[:0], env)
	return x.scratchQ
}

// TakeCycles converts the accumulated ledger to cycles under the decoder's
// model and resets it — the per-frame hand-off to the pipeline's energy
// accounting.
func (x *Decoder) TakeCycles() uint64 {
	c := x.cfg.Model.Cycles(x.ops)
	x.ops = OpCounts{}
	return c
}

// window returns the [lo, hi) decimated-rate indices of payload symbol s —
// the integer-exact twin of the float demodulator's symbolWindow:
// round(s * SimSamplesPerSymbol / decim) computed as
// floor((2*s*spb + decim) / (2*decim)), which is round-half-up on the same
// exact rational.
func (x *Decoder) window(s, decim, n int) (int, int) {
	spb := int64(x.cfg.SimSamplesPerSymbol)
	d := int64(decim)
	lo := int((2*int64(s)*spb + d) / (2 * d))
	hi := int((2*int64(s+1)*spb + d) / (2 * d))
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// symbolFromEdge maps a comparator falling edge at sample index `edge` of an
// L-sample symbol window (or the window boundary itself, when atBoundary)
// through the bias correction to the nearest downlink symbol — the integer
// form of NearestSymbol(PositionFromPeak(frac - bias)):
//
//	sym = round(2^K * (1 - frac + bias)) mod 2^K,  frac = (2*edge+1)/(2L)
//
// computed exactly over the common denominator 2L * 2^15.
func (x *Decoder) symbolFromEdge(edge, L int, atBoundary bool) int {
	den := int64(2*L) << 15
	num := int64(2*L) * x.biasQ15
	if !atBoundary {
		num += int64(2*L-2*edge-1) << 15
	}
	a := int64(x.cfg.Params.AlphabetSize())
	sym := roundDiv(a*num, den) % a
	if sym < 0 {
		sym += a
	}
	return int(sym)
}

// roundDiv divides with round-half-away-from-zero, matching math.Round. The
// divisor must be positive.
func roundDiv(a, b int64) int64 {
	if a >= 0 {
		return (2*a + b) / (2 * b)
	}
	return -((-2*a + b) / (2 * b))
}

// DecodePeakTracking is the integer Section 2.2 decoder: hysteresis-quantize
// the ADC codes against the calibrated thresholds, then map each symbol
// window's peak marker to a chirp position. The markers come from
// analog.PeakEdges, the classifier the float decoder uses too, over this
// decoder's own integer-exact windows; only the arithmetic differs.
//
//saiyan:hotpath
func (x *Decoder) DecodePeakTracking(env []Q15, nSymbols int) []int {
	x.scratchBit = x.comp.Quantize(x.scratchBit, env)
	bits := x.scratchBit
	x.ops.Load += uint64(len(env))
	x.ops.Cmp += uint64(len(env))

	if cap(x.scratchBounds) < nSymbols+1 {
		x.scratchBounds = make([]int, nSymbols+1) //lint:allow hotalloc amortized: runs only on scratch growth
	}
	bounds := x.scratchBounds[:nSymbols+1]
	for s := range bounds {
		bounds[s], _ = x.window(s, x.cfg.SamplerDecim, len(bits))
	}
	x.scratchEdges = analog.PeakEdges(x.scratchEdges, bits, bounds)
	out := make([]int, nSymbols) //lint:allow hotalloc the returned symbol slice is the function's contract
	for s, e := range x.scratchEdges {
		// The edge scan reads and compares every window sample.
		x.ops.Load += uint64(e.Len)
		x.ops.Cmp += uint64(e.Len)
		switch {
		case e.Own:
			out[s] = x.symbolFromEdge(e.Edge, e.Len, false)
		case e.Boundary:
			out[s] = x.symbolFromEdge(0, 1, true) // peak rides the boundary
		default:
			continue // erasure: symbol 0
		}
		// Position mapping: one widening multiply, one rounding division.
		x.ops.Mul += 2
		x.ops.Add += 2
		x.ops.Div++
	}
	return out
}

// DecodeCorrelation is the integer Section 3.2 decoder: for each symbol
// window, rank every quantized template by zero-mean normalized correlation
// and pick the best. With integer sums over n samples the ranking quantity
//
//	score ∝ D / sqrt(Et),  D = n*Σ(w·t) - Σw*Σt,  Et = n*Σt² - (Σt)²
//
// orders templates exactly as the float cosine similarity does (the window
// energy Ew is common to all candidates and cancels). The compare is
// division-free: RatioCmp cross-multiplies D against the opponent's
// precomputed isqrt(Et) with a widening 64x128 product. Truncated edge
// windows rebuild Σt/Σt² from prefix sums and pay one integer square root.
//
//saiyan:hotpath
func (x *Decoder) DecodeCorrelation(env []Q15, nSymbols int) []int {
	out := make([]int, nSymbols) //lint:allow hotalloc the returned symbol slice is the function's contract
	if x.bank == nil {
		return out
	}
	bank := x.bank
	for s := 0; s < nSymbols; s++ {
		lo, hi := x.window(s, x.cfg.CorrDecim, len(env))
		if lo >= hi {
			continue
		}
		win := env[lo:hi]
		n := len(win)
		if n > bank.length {
			n = bank.length
		}
		if n == 0 {
			continue
		}
		// Window statistics, one fused pass: Σw and Σw².
		var sw, swsq int64
		for _, w := range win[:n] {
			wv := int64(w)
			sw += wv
			swsq += wv * wv
		}
		nn := uint64(n)
		x.ops.Load += nn
		x.ops.Add += nn
		x.ops.MAC += nn
		ew := int64(n)*swsq - sw*sw
		if ew <= 0 {
			continue // flat window: every score is zero, keep symbol 0
		}
		best := 0
		var bestD int64
		var bestS uint64
		for t := 0; t < len(bank.q); t++ {
			tq := bank.q[t]
			// Cross term Σ(w·t): one MAC pass over the window.
			var swt int64
			for i := 0; i < n; i++ {
				swt += int64(win[i]) * int64(tq[i])
			}
			x.ops.Load += 2 * nn
			x.ops.MAC += nn

			st, sqrtEt := bank.sum[t], bank.sqrtEt[t]
			if n != bank.length {
				// Truncated edge window: exact stats from prefix sums,
				// one LUT+Newton square root for the normalizer.
				st = bank.prefix[t][n]
				et := int64(n)*bank.prefixSq[t][n] - st*st
				sqrtEt = ISqrt64(uint64(et))
				x.ops.Mul += 2
				x.ops.Add++
				x.ops.Sqrt++
			}
			d := int64(n)*swt - sw*st
			x.ops.Mul += 2
			x.ops.Add++

			cd, cs := d, sqrtEt
			if cs == 0 {
				cd, cs = 0, 1 // zero-energy template scores zero
			}
			// Division-free ranking. Template 0 seeds the argmax
			// unconditionally (the float decoder starts from -Inf, so even
			// an anticorrelated first template wins the empty slot); after
			// that, strictly-greater keeps the first of a tie, matching the
			// float argmax exactly.
			if t == 0 || RatioCmp(cd, cs, bestD, bestS) > 0 {
				best, bestD, bestS = t, cd, cs
			}
			x.ops.Mul += 2
			x.ops.Cmp++
		}
		out[s] = best
	}
	return out
}

// templateBank holds the quantized correlation templates with the
// precomputed integer statistics the division-free compare needs: full-
// length sums and isqrt energies for the common case, prefix sums for
// truncated edge windows. Read-only after construction, shared by clones.
type templateBank struct {
	q      [][]Q15
	length int
	sum    []int64  // Σ q[t] over the full length
	sqrtEt []uint64 // isqrt(length*Σq² - (Σq)²)
	// prefix[t][i] = Σ q[t][:i]; prefixSq likewise for squares.
	prefix   [][]int64
	prefixSq [][]int64
}

func newTemplateBank(templates [][]float64, bits int) (*templateBank, error) {
	if len(templates) == 0 {
		return nil, fmt.Errorf("fxp: empty template set")
	}
	length := len(templates[0])
	if length == 0 {
		return nil, fmt.Errorf("fxp: zero-length template")
	}
	peak := 0.0
	for t, tmpl := range templates {
		if len(tmpl) != length {
			return nil, fmt.Errorf("fxp: template %d length %d != %d", t, len(tmpl), length)
		}
		for _, v := range tmpl {
			if v > peak {
				peak = v
			}
		}
	}
	if !(peak > 0) {
		return nil, fmt.Errorf("fxp: templates have no positive excursion")
	}
	adc := ADC{Bits: bits, FullScale: peak}
	b := &templateBank{
		q:        make([][]Q15, len(templates)),
		length:   length,
		sum:      make([]int64, len(templates)),
		sqrtEt:   make([]uint64, len(templates)),
		prefix:   make([][]int64, len(templates)),
		prefixSq: make([][]int64, len(templates)),
	}
	for t, tmpl := range templates {
		q := adc.Quantize(nil, tmpl)
		pre := make([]int64, length+1)
		preSq := make([]int64, length+1)
		for i, c := range q {
			pre[i+1] = pre[i] + int64(c)
			preSq[i+1] = preSq[i] + int64(c)*int64(c)
		}
		b.q[t] = q
		b.prefix[t] = pre
		b.prefixSq[t] = preSq
		b.sum[t] = pre[length]
		et := int64(length)*preSq[length] - pre[length]*pre[length]
		b.sqrtEt[t] = ISqrt64(uint64(et))
	}
	return b, nil
}
