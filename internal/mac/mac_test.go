package mac

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"saiyan/internal/dsp"
)

func TestRetransmissionMatchesClosedForm(t *testing.T) {
	// With a perfect downlink, PRR after k retransmissions is
	// 1-(1-p)^(k+1). The paper's Aloba case: p=0.456 gives 70.1 %, 83.3 %,
	// 95.5 % for 1..3 retransmissions (Figure 26; the closed form gives
	// 70.4 %, 83.9 %, 91.2 %).
	rng := dsp.NewRand(1, 1)
	link := StaticLink{Up: 0.456, Down: 1}
	res := SimulateRetransmission(link, 200000, 3, rng)
	for k := 0; k <= 3; k++ {
		want := 1 - math.Pow(1-link.Up, float64(k+1))
		if math.Abs(res.PRR[k]-want) > 0.01 {
			t.Errorf("PRR[%d] = %g, want %g", k, res.PRR[k], want)
		}
	}
	if res.Attempts <= 1 {
		t.Errorf("attempts per delivery = %g, want > 1 for lossy link", res.Attempts)
	}
}

func TestRetransmissionNeedsDownlink(t *testing.T) {
	// Without Saiyan the tag cannot hear retransmission requests: PRR
	// stays at the single-shot value no matter the retry budget.
	rng := dsp.NewRand(2, 2)
	noFeedback := SimulateRetransmission(StaticLink{Up: 0.5, Down: 0}, 100000, 3, rng)
	if math.Abs(noFeedback.PRR[3]-0.5) > 0.01 {
		t.Errorf("PRR with dead downlink = %g, want ~0.5", noFeedback.PRR[3])
	}
	withFeedback := SimulateRetransmission(StaticLink{Up: 0.5, Down: 1}, 100000, 3, dsp.NewRand(2, 2))
	if withFeedback.PRR[3] < noFeedback.PRR[3]+0.3 {
		t.Errorf("feedback should lift PRR: %g vs %g", withFeedback.PRR[3], noFeedback.PRR[3])
	}
}

func TestRetransmissionPRRMonotone(t *testing.T) {
	// Property: PRR is non-decreasing in the retry budget, and bounded by
	// [single-shot, 1].
	f := func(seed uint64) bool {
		rng := dsp.NewRand(seed, 3)
		up := 0.2 + 0.6*rng.Float64()
		down := rng.Float64()
		res := SimulateRetransmission(StaticLink{Up: up, Down: down}, 5000, 4, rng)
		prev := 0.0
		for _, v := range res.PRR {
			if v < prev-1e-9 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRetransmissionNegativeBudgetClamped(t *testing.T) {
	rng := dsp.NewRand(3, 3)
	res := SimulateRetransmission(StaticLink{Up: 1, Down: 1}, 100, -5, rng)
	if len(res.PRR) != 1 || res.PRR[0] != 1 {
		t.Errorf("clamped result wrong: %+v", res)
	}
}

func jammedQuality(jammedPRR, clearPRR float64) ChannelQuality {
	return func(ch float64) float64 {
		if ch == 433.0e6 {
			return jammedPRR
		}
		return clearPRR
	}
}

func TestHoppingRecoversPRR(t *testing.T) {
	rng := dsp.NewRand(6, 6)
	cfg := DefaultHoppingConfig()
	res, err := SimulateHopping(cfg, jammedQuality(0.45, 0.93), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.HopRound < 0 {
		t.Fatal("tag never hopped despite jamming")
	}
	withoutMedian := dsp.Median(res.WithoutHop)
	withMedian := dsp.Median(res.WithHop)
	t.Logf("median PRR: without hop %.2f, with hop %.2f (hopped at round %d)",
		withoutMedian, withMedian, res.HopRound)
	if withMedian < withoutMedian+0.3 {
		t.Errorf("hopping should lift median PRR: %g vs %g", withMedian, withoutMedian)
	}
}

func TestHoppingDisabledWithoutFeedback(t *testing.T) {
	rng := dsp.NewRand(7, 7)
	cfg := DefaultHoppingConfig()
	cfg.HopCommandPRR = 0 // no Saiyan: hop command never demodulated
	res, err := SimulateHopping(cfg, jammedQuality(0.45, 0.93), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.HopRound != -1 {
		t.Error("tag hopped without a decodable command")
	}
	if m := dsp.Median(res.WithHop); m > 0.6 {
		t.Errorf("median PRR = %g, should stay jammed", m)
	}
}

func TestHoppingValidation(t *testing.T) {
	rng := dsp.NewRand(8, 8)
	cfg := DefaultHoppingConfig()
	cfg.Rounds = 0
	if _, err := SimulateHopping(cfg, jammedQuality(0.4, 0.9), rng); err == nil {
		t.Error("zero rounds accepted")
	}
}

func TestRateAdapterPicksFastestSafeRate(t *testing.T) {
	// BER grows with K; the target admits K<=3.
	berOf := func(k int) (float64, error) {
		return math.Pow(10, float64(k-4)*2), nil // K=3 -> 1e-2? no: 10^-2 at k=3
	}
	// berOf: K=1 -> 1e-6, K=2 -> 1e-4, K=3 -> 1e-2, K=4 -> 1, K=5 -> 1e2.
	r := RateAdapter{BERTarget: 1e-3, MinK: 1, MaxK: 5}
	k, ok, err := r.Pick(berOf)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || k != 2 {
		t.Errorf("picked K=%d ok=%v, want K=2 met", k, ok)
	}
}

func TestRateAdapterFallsBack(t *testing.T) {
	r := RateAdapter{BERTarget: 1e-3, MinK: 1, MaxK: 5}
	k, ok, err := r.Pick(func(int) (float64, error) { return 0.5, nil })
	if err != nil {
		t.Fatal(err)
	}
	if ok || k != r.MinK {
		t.Errorf("fallback = (%d, %v), want (MinK, false)", k, ok)
	}
	bad := RateAdapter{MinK: 3, MaxK: 1}
	if _, _, err := bad.Pick(func(int) (float64, error) { return 0, nil }); err == nil {
		t.Error("inverted bounds accepted")
	}
	wantErr := fmt.Errorf("probe failed")
	_, _, err = r.Pick(func(int) (float64, error) { return 0, wantErr })
	if err == nil {
		t.Error("probe error swallowed")
	}
}
