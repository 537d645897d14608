package fxp

import (
	"math"
	"testing"

	"saiyan/internal/lora"
)

// newTestDecoder builds a decoder over the default PHY with a small,
// convenient geometry: 64 simulation samples per symbol, sampler decimation
// 2 (32-sample symbol windows), correlator decimation 16 (4-sample
// windows, matching the short hand-built templates).
func newTestDecoder(t *testing.T) *Decoder {
	t.Helper()
	d, err := NewDecoder(Config{
		Params:              lora.DefaultParams(),
		SimSamplesPerSymbol: 64,
		SamplerDecim:        2,
		CorrDecim:           16,
		ADCBits:             12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSatArithmetic(t *testing.T) {
	cases := []struct {
		a, b     Q15
		add, sub Q15
	}{
		{0, 0, 0, 0},
		{100, 200, 300, -100},
		{MaxQ15, 1, MaxQ15, 32766},
		{MinQ15, -1, MinQ15, -32767},
		{MaxQ15, MaxQ15, MaxQ15, 0},
		{MinQ15, MaxQ15, -1, MinQ15},
		// -1 + (-1.0) wraps to +max in raw int16; saturation must pin it.
		{-1, MinQ15, MinQ15, MaxQ15},
	}
	for _, c := range cases {
		if got := SatAdd(c.a, c.b); got != c.add {
			t.Errorf("SatAdd(%d, %d) = %d, want %d", c.a, c.b, got, c.add)
		}
		if got := SatSub(c.a, c.b); got != c.sub {
			t.Errorf("SatSub(%d, %d) = %d, want %d", c.a, c.b, got, c.sub)
		}
	}
}

func TestMulSaturatesMinusOneSquared(t *testing.T) {
	if got := Mul(MinQ15, MinQ15); got != MaxQ15 {
		t.Fatalf("Mul(-1, -1) = %d, want saturation at %d", got, MaxQ15)
	}
	// Identity-ish: x * ~1.0 stays within a couple of LSBs of x.
	for _, x := range []Q15{0, 1, 1234, MaxQ15, -1, -1234, MinQ15 + 1} {
		got := Mul(x, MaxQ15)
		if d := int(got) - int(x); d < -2 || d > 2 {
			t.Errorf("Mul(%d, MaxQ15) = %d, drifted by %d", x, got, d)
		}
	}
}

func TestISqrt64ExactFloor(t *testing.T) {
	cases := []uint64{0, 1, 2, 3, 4, 15, 16, 17, 1 << 20, 1<<20 + 1,
		(1 << 32) - 1, 1 << 32, (1 << 62) + 12345, math.MaxUint64,
		math.MaxUint64 - 1, (1 << 63) - 1}
	for i := uint64(1); i < 2000; i++ {
		cases = append(cases, i, i*i, i*i-1, i*i+2*i) // around perfect squares
	}
	for _, x := range cases {
		s := ISqrt64(x)
		if !sqLE(s, x) || sqLE(s+1, x) {
			t.Fatalf("ISqrt64(%d) = %d: not the floor square root", x, s)
		}
	}
}

// TestSqrtQ15WithinOneLSB holds ISqrt64 on the Q1.15 mapping:
// sqrt(x/2^15)*2^15 == isqrt(x<<15) within one LSB of the real root.
func TestSqrtQ15WithinOneLSB(t *testing.T) {
	for x := Q15(0); ; x++ {
		got := float64(ISqrt64(uint64(x) << 15))
		want := math.Sqrt(float64(x)/float64(OneQ15)) * float64(OneQ15)
		if math.Abs(got-want) > 1 {
			t.Fatalf("isqrt(%d<<15) = %g, want %g within 1 LSB", x, got, want)
		}
		if x == MaxQ15 {
			break
		}
	}
}

func TestRatioCmp(t *testing.T) {
	cases := []struct {
		na   int64
		da   uint64
		nb   int64
		db   uint64
		want int
	}{
		{1, 2, 1, 2, 0},                     // 0.5 == 0.5
		{1, 2, 1, 3, 1},                     // 0.5 > 0.333
		{-1, 2, 1, 1000000, -1},             // negative < positive
		{-1, 2, -1, 3, -1},                  // -0.5 < -0.333
		{1 << 48, 1, 1, 1 << 48, 1},         // widening product magnitudes
		{-(1 << 48), 1, -1, 1 << 48, -1},    // same, negated
		{0, 5, 0, 9, 0},                     // both zero
		{math.MinInt64, 1, -1, 1 << 62, -1}, // MinInt64 magnitude survives
	}
	for _, c := range cases {
		if got := RatioCmp(c.na, c.da, c.nb, c.db); got != c.want {
			t.Errorf("RatioCmp(%d/%d, %d/%d) = %d, want %d", c.na, c.da, c.nb, c.db, got, c.want)
		}
	}
}

func TestADCQuantization(t *testing.T) {
	adc, err := NewADC(12, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if adc.Levels() != 4096 {
		t.Fatalf("12-bit ADC: levels=%d", adc.Levels())
	}
	if got := adc.Code(0); got != 0 {
		t.Errorf("Code(0) = %d", got)
	}
	if got := adc.Code(2.0); got != Q15(4095)<<3 {
		t.Errorf("full-scale code = %d, want %d", got, Q15(4095)<<3)
	}
	for _, over := range []float64{2.0001, 100, math.Inf(1)} {
		if got := adc.Code(over); got != Q15(4095)<<3 {
			t.Errorf("Code(%g) = %d, want saturation at top code", over, got)
		}
	}
	for _, under := range []float64{-0.1, math.Inf(-1), math.NaN()} {
		if got := adc.Code(under); got != 0 {
			t.Errorf("Code(%g) = %d, want 0", under, got)
		}
	}
	// Round trip stays within half a quantization step.
	step := 2.0 / 4095
	for _, v := range []float64{0.01, 0.5, 1.0, 1.5, 1.999} {
		code := adc.Code(v)
		if got := float64(code>>3) * step; math.Abs(got-v) > step/2+1e-12 {
			t.Errorf("Value(Code(%g)) = %g, off by more than half an LSB", v, got)
		}
	}
	// Empty and single-sample windows follow the append contract.
	if got := adc.Quantize(nil, nil); len(got) != 0 {
		t.Errorf("Quantize(nil) = %v", got)
	}
	if got := adc.Quantize(nil, []float64{1.0}); len(got) != 1 || got[0] == 0 {
		t.Errorf("single-sample quantize = %v", got)
	}
}

func TestNewADCRejectsBadConfigs(t *testing.T) {
	for _, c := range []struct {
		bits int
		fs   float64
	}{{1, 1}, {16, 1}, {0, 1}, {12, 0}, {12, -3}, {12, math.NaN()}} {
		if _, err := NewADC(c.bits, c.fs); err == nil {
			t.Errorf("NewADC(%d, %g) accepted", c.bits, c.fs)
		}
	}
}

func TestCycleModelPricing(t *testing.T) {
	m := DefaultCycleModel()
	ops := OpCounts{Load: 10, Add: 5, Mul: 3, MAC: 7, Cmp: 2, Sqrt: 1, Div: 1}
	want := 10*m.Load + 5*m.Add + 3*m.Mul + 7*m.MAC + 2*m.Cmp + m.Sqrt + m.Div
	if got := m.Cycles(ops); got != want {
		t.Fatalf("Cycles = %d, want %d", got, want)
	}
}

func TestDecoderCloneSharesBankNotLedger(t *testing.T) {
	d := newTestDecoder(t)
	if err := d.SetTemplates([][]float64{{0, 1, 2, 1}, {2, 1, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	d.SetThresholds(1.2, 0.8, 2.0)
	d.SetPeakBias(0.03)
	c := d.Clone()
	if c.bank != d.bank {
		t.Fatal("clone does not share the template bank")
	}
	env := make([]Q15, 64)
	for i := range env {
		env[i] = Q15(i * 400)
	}
	c.DecodePeakTracking(make([]int, 2), env)
	if c.ops == (OpCounts{}) {
		t.Fatal("clone decode accumulated no ops")
	}
	if d.ops != (OpCounts{}) {
		t.Fatal("clone decode leaked ops into the master's ledger")
	}
	cycles := c.TakeCycles()
	if cycles == 0 {
		t.Fatal("TakeCycles returned 0 after a decode")
	}
	if c.TakeCycles() != 0 {
		t.Fatal("TakeCycles did not reset the ledger")
	}
}

func TestDecoderRejectsMismatchedTemplates(t *testing.T) {
	d := newTestDecoder(t)
	if err := d.SetTemplates([][]float64{{1, 2}, {1, 2, 3}}); err == nil {
		t.Fatal("unequal template lengths accepted")
	}
	if err := d.SetTemplates([][]float64{{0, 0}, {0, 0}}); err == nil {
		t.Fatal("all-zero templates accepted")
	}
	if err := d.SetTemplates(nil); err == nil {
		t.Fatal("empty template set accepted")
	}
}

// TestDecodeCorrelationAllNegativeScores pins the argmax seeding: when a
// window anticorrelates with every template, the decoder must pick the
// least anticorrelated one — as the float reference's -Inf-seeded argmax
// does — not fall back to symbol 0.
func TestDecodeCorrelationAllNegativeScores(t *testing.T) {
	d := newTestDecoder(t)
	// Both templates rise; template 1 rises much more weakly, so against a
	// falling window it scores ~-0.77 where template 0 scores -1.
	if err := d.SetTemplates([][]float64{{0, 1, 2, 3}, {2, 2, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	env := []Q15{30000, 20000, 10000, 0} // one 4-sample symbol window, falling
	got := make([]int, 1)
	d.DecodeCorrelation(got, env)
	if got[0] != 1 {
		t.Fatalf("all-negative window decoded as %d, want 1 (least anticorrelated template)", got[0])
	}
}

func TestDecodeDeterminism(t *testing.T) {
	d := newTestDecoder(t)
	if err := d.SetTemplates([][]float64{{0, 1, 2, 3}, {3, 2, 1, 0}}); err != nil {
		t.Fatal(err)
	}
	d.SetThresholds(1.5, 1.0, 3.0)
	env := make([]Q15, 128)
	for i := range env {
		env[i] = Q15((i * 2654435761) % 32768)
	}
	first := make([]int, 4)
	d.DecodeCorrelation(first, env)
	d.TakeCycles()
	second := make([]int, 4)
	d.DecodeCorrelation(second, env)
	c2 := d.TakeCycles()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("decode not deterministic: %v vs %v", first, second)
		}
	}
	d3 := d.Clone()
	third := make([]int, 4)
	d3.DecodeCorrelation(third, env)
	for i := range first {
		if first[i] != third[i] {
			t.Fatalf("clone decode diverged: %v vs %v", first, third)
		}
	}
	if c3 := d3.TakeCycles(); c3 != c2 {
		t.Fatalf("cycle ledgers diverged: %d vs %d", c3, c2)
	}
}
