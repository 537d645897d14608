package dsp

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceKnown(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(x); m != 5 {
		t.Errorf("mean = %g, want 5", m)
	}
	if v := Variance(x); v != 4 {
		t.Errorf("variance = %g, want 4", v)
	}
	if s := StdDev(x); s != 2 {
		t.Errorf("stddev = %g, want 2", s)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should be zero")
	}
	if !math.IsInf(Max(nil), -1) || !math.IsInf(Min(nil), 1) {
		t.Error("Max/Min of empty should be -Inf/+Inf")
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of empty should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	x := []float64{5, 1, 3, 2, 4}
	if p := Percentile(x, 0); p != 1 {
		t.Errorf("p0 = %g, want 1", p)
	}
	if p := Percentile(x, 100); p != 5 {
		t.Errorf("p100 = %g, want 5", p)
	}
	if p := Median(x); p != 3 {
		t.Errorf("median = %g, want 3", p)
	}
	if p := Percentile(x, 25); p != 2 {
		t.Errorf("p25 = %g, want 2", p)
	}
}

func TestPercentileMonotone(t *testing.T) {
	// Property: percentile is monotone in p and bounded by min/max.
	f := func(seed uint64) bool {
		rng := NewRand(seed, 17)
		x := make([]float64, 1+rng.IntN(50))
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(x, p)
			if v < prev || v < Min(x)-1e-9 || v > Max(x)+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDBConversionsRoundTrip(t *testing.T) {
	f := func(db float64) bool {
		if math.Abs(db) > 200 {
			return true // outside representable dynamic range
		}
		if math.Abs(DB(FromDB(db))-db) > 1e-9 {
			return false
		}
		return math.Abs(AmpDB(AmpFromDB(db))-db) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(DB(0), -1) || !math.IsInf(AmpDB(-3), -1) {
		t.Error("non-positive ratios should map to -Inf")
	}
}

func TestDBmWatts(t *testing.T) {
	if w := DBmToWatts(30); math.Abs(w-1) > 1e-12 {
		t.Errorf("30 dBm = %g W, want 1", w)
	}
}

func TestSincAtZeroAndIntegers(t *testing.T) {
	if Sinc(0) != 1 {
		t.Error("Sinc(0) != 1")
	}
	for _, k := range []float64{1, 2, -3} {
		if math.Abs(Sinc(k)) > 1e-12 {
			t.Errorf("Sinc(%g) = %g, want 0", k, Sinc(k))
		}
	}
}

// refPercentile is Percentile as written before SortedPercentile split off
// its order-statistic read: the reference both must match bit for bit.
func refPercentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(x))
	copy(sorted, x)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// TestSortedPercentileMatchesPercentile holds SortedPercentile over one
// sorted copy, and Percentile, bit-identical to the reference at every
// percentile AutoCalibrate reads and at the p <= 0 and p >= 100 edges, on
// inputs with NaN, infinities, signed zeros and duplicates.
func TestSortedPercentileMatchesPercentile(t *testing.T) {
	nan := math.NaN()
	inputs := [][]float64{
		nil,
		{7},
		{5, 1, 3, 2, 4},
		{2, 2, 2, 1, 1},
		{0, math.Copysign(0, -1), 3, -1},
		{3, nan, 1, 2},
		{nan, nan},
		{math.Inf(1), 1, math.Inf(-1), nan, 0.5},
	}
	rng := NewRand(5, 17)
	for n := 1; n <= 64; n *= 2 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		inputs = append(inputs, x)
	}
	ps := []float64{math.Inf(-1), -5, 0, 1e-300, 12.5, 25, 45, 50, 98, 99, 99.999, 100, 150, math.Inf(1)}
	for _, x := range inputs {
		sorted := append([]float64(nil), x...)
		sort.Float64s(sorted)
		for _, p := range ps {
			want := refPercentile(x, p)
			if got := SortedPercentile(sorted, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("SortedPercentile(%v, %g) = %v, want %v", x, p, got, want)
			}
			if got := Percentile(x, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Percentile(%v, %g) = %v, want %v", x, p, got, want)
			}
		}
	}
}
