package fxp

import (
	"math"
	"testing"
)

// FuzzFxpOps drives the Q1.15 saturating primitives against float64
// references: every result must stay within the quantization bound of the
// real-valued answer and must never wrap — an overflowing fixed-point op
// pins at the rail it crossed, it does not change sign.
func FuzzFxpOps(f *testing.F) {
	f.Add(int16(0), int16(0), uint64(0))
	f.Add(int16(math.MaxInt16), int16(math.MaxInt16), uint64(math.MaxUint64))
	f.Add(int16(math.MinInt16), int16(math.MinInt16), uint64(1)<<62)
	f.Add(int16(math.MinInt16), int16(math.MaxInt16), uint64(12345))
	f.Add(int16(1), int16(-1), uint64(1))
	f.Fuzz(func(t *testing.T, ra, rb int16, x uint64) {
		a, b := Q15(ra), Q15(rb)
		fa := float64(a) / float64(OneQ15)
		fb := float64(b) / float64(OneQ15)
		clamp := func(v float64) float64 {
			return math.Max(float64(MinQ15), math.Min(float64(MaxQ15), v))
		}

		// Saturating add/sub: exact wherever the true sum is representable,
		// pinned at the rail otherwise — never wrapped.
		if got, want := float64(SatAdd(a, b)), clamp(float64(a)+float64(b)); got != want {
			t.Errorf("SatAdd(%d, %d) = %g, want %g", a, b, got, want)
		}
		if got, want := float64(SatSub(a, b)), clamp(float64(a)-float64(b)); got != want {
			t.Errorf("SatSub(%d, %d) = %g, want %g", a, b, got, want)
		}

		// Mul: within one output LSB (2^-15) of the real product, saturated.
		mul := float64(Mul(a, b)) / float64(OneQ15)
		want := clamp(fa*fb*float64(OneQ15)) / float64(OneQ15)
		if math.Abs(mul-want) > 1.0/float64(OneQ15) {
			t.Errorf("Mul(%d, %d) = %g, want %g within 2^-15", a, b, mul, want)
		}

		// MAC: bit-exact against the widened integer product (float64 holds
		// a 30-bit product exactly), and the accumulator never truncates.
		acc := int64(x >> 1) // keep headroom so the reference cannot overflow
		if got, want := MAC(acc, a, b), acc+int64(a)*int64(b); got != want {
			t.Errorf("MAC(%d, %d, %d) = %d, want %d", acc, a, b, got, want)
		}

		// Q1.15 square root through ISqrt64: floor-rooted, within one LSB
		// of the real value.
		if a > 0 {
			s := ISqrt64(uint64(a) << 15)
			ref := math.Sqrt(fa) * float64(OneQ15)
			if d := float64(s) - ref; d > 0 || d < -1 {
				t.Errorf("isqrt(%d<<15) = %d, want floor within 1 LSB of %g", a, s, ref)
			}
		}

		// 64-bit integer square root: the exact floor, verified without
		// floats (s*s <= x < (s+1)*(s+1) via widening multiplies).
		r := ISqrt64(x)
		if !sqLE(r, x) || sqLE(r+1, x) {
			t.Errorf("ISqrt64(%d) = %d: not the floor square root", x, r)
		}

		// Cross-multiplication compare agrees with the big-float quotient
		// compare for in-range operands.
		na, nb := int64(a)*int64(x>>40), int64(b)*int64(x>>40)
		da, db := (x>>32)|1, (x>>33)|1
		got := RatioCmp(na, da, nb, db)
		qa := float64(na) / float64(da)
		qb := float64(nb) / float64(db)
		wantCmp := 0
		if qa > qb {
			wantCmp = 1
		} else if qa < qb {
			wantCmp = -1
		}
		// The integer compare is exact; the float64 reference is not, so
		// disagreement is only a failure when the quotients are clearly
		// apart.
		if got != wantCmp && math.Abs(qa-qb) > 1e-9*math.Max(math.Abs(qa), math.Abs(qb)) {
			t.Errorf("RatioCmp(%d/%d, %d/%d) = %d, want %d", na, da, nb, db, got, wantCmp)
		}
	})
}
