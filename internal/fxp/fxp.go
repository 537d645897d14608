// Package fxp is the fixed-point MCU datapath: an integer re-implementation
// of the Saiyan payload decoders in the arithmetic the paper's digital logic
// actually runs. The PCB prototype decodes on a 19.6 uW Apollo2 MCU and the
// TSMC 65-nm ASIC spends 2 uW on digital logic (Section 4.3) — neither has a
// float64 in sight. This package models that reality: an ADC quantizer turns
// the analog sampler's envelope into integer codes at a configurable bit
// depth, and Q1.15 saturating primitives decode them — peak tracking with an
// integer hysteresis comparator, and template correlation ranked by a
// division-free cross-multiplication compare with a LUT+Newton integer
// square root for the template-energy normalizer.
//
// Every decode also keeps a per-operation ledger (OpCounts) that a
// CycleModel converts into MCU cycles, so the simulated digital load can be
// priced in microwatts through internal/energy and compared against the
// paper's Table 2 MCU entry.
//
// The analog front end (SAW, LNA, envelope detection, video filtering) stays
// float64 — it models continuous voltages, not logic. The boundary is the
// ADC: everything downstream of ADC.Quantize is integer, deterministic, and
// cycle-accounted.
package fxp

import "math/bits"

// Q15 is a Q1.15 fixed-point value: 15 fractional bits, one sign bit, so
// codes span [-1.0, 1.0-2^-15] in steps of 2^-15. Envelope samples occupy
// the non-negative half.
type Q15 int16

// Q1.15 range constants.
const (
	// MaxQ15 is the largest representable value, 1.0 - 2^-15.
	MaxQ15 Q15 = 0x7fff
	// MinQ15 is the smallest representable value, -1.0.
	MinQ15 Q15 = -0x8000
	// OneQ15 is 1.0 in Q1.15 units; it is NOT representable as a Q15 (the
	// format tops out one LSB short), which is exactly why the primitives
	// saturate.
	OneQ15 int32 = 1 << 15
)

// Sat clamps a 32-bit intermediate into the Q1.15 range. Saturation — not
// wraparound — is the defining behavior of DSP fixed-point: an overflowing
// accumulator pinned at full scale degrades gracefully, one that wraps flips
// sign and destroys the decode.
func Sat(v int32) Q15 {
	if v > int32(MaxQ15) {
		return MaxQ15
	}
	if v < int32(MinQ15) {
		return MinQ15
	}
	return Q15(v)
}

// SatAdd returns a+b with saturation.
//
//lint:allow unused fxpsat's diagnostic names it as a saturating primitive; FuzzFxpOps holds it to the widened reference
func SatAdd(a, b Q15) Q15 { return Sat(int32(a) + int32(b)) }

// SatSub returns a-b with saturation.
//
//lint:allow unused fxpsat's diagnostic names it as a saturating primitive; FuzzFxpOps holds it to the widened reference
func SatSub(a, b Q15) Q15 { return Sat(int32(a) - int32(b)) }

// Mul returns the Q1.15 product with round-to-nearest and saturation: the
// full 32-bit product carries 30 fractional bits, rounding adds half an
// output LSB before the shift, and the one overflow case (-1.0 * -1.0 = +1.0)
// saturates to MaxQ15.
//
//lint:allow unused fxpsat's diagnostic names it as a saturating primitive; FuzzFxpOps holds it to the widened reference
func Mul(a, b Q15) Q15 {
	return Sat(int32((int32(a)*int32(b) + 1<<14) >> 15))
}

// MAC is one fused multiply-accumulate step into a wide accumulator: acc +
// a*b, exact, in Q2.30. A 64-bit accumulator absorbs any realistic window
// length without wrapping (2^33 full-scale products); MCUs get the same
// headroom from their long-accumulator MAC units.
//
//lint:allow unused fxpsat's diagnostic names it as a saturating primitive; FuzzFxpOps holds it to the widened reference
func MAC(acc int64, a, b Q15) int64 {
	return acc + int64(a)*int64(b)
}

// sqrtSeed[t] approximates sqrt(t)*2^28 for t in [64, 256), the top byte of
// a value normalized into [2^62, 2^64). Seeded this way, Newton's iteration
// starts within 2^-8 relative error and two iterations reach 32-bit
// precision. The table is built once at init — on an MCU it would live in
// flash.
var sqrtSeed [256]uint64

func init() {
	for t := 1; t < 256; t++ {
		// Integer Heron iterations from a crude seed; no float involved, so
		// the table is identical on every platform.
		x := uint64(t) << 56
		r := uint64(1) << 31
		for i := 0; i < 16; i++ {
			r = (r + x/r) >> 1
		}
		sqrtSeed[t] = r
	}
}

// ISqrt64 returns floor(sqrt(x)) for a 64-bit unsigned value: normalize x
// into [2^62, 2^64) by an even shift, seed from the 256-entry LUT on the top
// byte, run two Newton (Heron) iterations, then denormalize and fix up to
// the exact floor. This is the MCU-style integer square root the correlation
// decoder uses for template-energy normalizers.
func ISqrt64(x uint64) uint64 {
	if x == 0 {
		return 0
	}
	shift := bits.LeadingZeros64(x) &^ 1 // even, so sqrt halves it exactly
	norm := x << shift
	r := sqrtSeed[norm>>56] // ~sqrt(norm) with <2^-8 relative error
	r = (r + norm/r) >> 1
	r = (r + norm/r) >> 1
	r >>= shift / 2
	// Fix up to the exact floor; the Newton result is within a couple of
	// LSBs, so these loops run at most a step or two.
	for !sqLE(r, x) {
		r--
	}
	for sqLE(r+1, x) {
		r++
	}
	return r
}

// sqLE reports a*a <= x without overflow, via a widening multiply.
func sqLE(a, x uint64) bool {
	hi, lo := bits.Mul64(a, a)
	return hi == 0 && lo <= x
}

// RatioCmp compares na/da against nb/db for positive denominators without a
// single division: sign triage first, then the 64x64->128 widening
// cross-multiplication |na|*db vs |nb|*da. This is how the correlation
// decoder ranks normalized scores — the shared window energy cancels, the
// template energies live in the denominators, and no quotient is ever
// materialized. It returns -1, 0, or +1.
func RatioCmp(na int64, da uint64, nb int64, db uint64) int {
	switch {
	case na >= 0 && nb < 0:
		return 1
	case na < 0 && nb >= 0:
		return -1
	}
	neg := na < 0
	if neg {
		na, nb = -na, -nb
	}
	ahi, alo := bits.Mul64(uint64(na), db)
	bhi, blo := bits.Mul64(uint64(nb), da)
	cmp := 0
	if ahi != bhi {
		if ahi > bhi {
			cmp = 1
		} else {
			cmp = -1
		}
	} else if alo != blo {
		if alo > blo {
			cmp = 1
		} else {
			cmp = -1
		}
	}
	if neg {
		cmp = -cmp
	}
	return cmp
}
