package gateway

import (
	"context"
	"fmt"

	"reflect"
	"testing"

	"saiyan/internal/mac"
	"saiyan/internal/ring"
)

// runEpochs serves n epochs and returns their reports; on an error it
// returns the reports of the epochs completed before it.
func runEpochs(g *Gateway, n int) ([]EpochReport, error) {
	reports := make([]EpochReport, 0, n)
	for range n {
		rep, err := g.RunEpoch(context.Background())
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

const testSeed = 20220404

// acceptanceConfig is the e2e workload: 2 ingest channels, 8 tags with
// join/leave churn and mobility, and a 12 dB degradation landing on
// channel 0 at epoch 2.
func acceptanceConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Seed = testSeed
	cfg.Workers = workers
	cfg.Channels = 2
	cfg.Tags = 8
	cfg.FramesPerTag = 2
	cfg.JoinEvery = 3
	cfg.LeaveEvery = 5
	cfg.MobilitySigma = 0.02
	cfg.Degrade = []Degradation{{Epoch: 2, Channel: 0, AttenDB: 12}}
	return cfg
}

// TestGatewayEndToEnd is the acceptance contract: the closed loop serves
// the churning 2-channel 8-tag deployment through a mid-run SNR
// degradation, reaches >= 95% dedup-correct delivery, demonstrably
// switches at least one session's rate, and produces a byte-identical
// Snapshot at 1, 4, and 8 workers.
func TestGatewayEndToEnd(t *testing.T) {
	const epochs = 6
	var first Snapshot
	for i, workers := range []int{1, 4, 8} {
		g, err := New(acceptanceConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		reports, err := runEpochs(g, epochs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(reports) != epochs {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(reports), epochs)
		}
		snap := g.Snapshot()
		if i == 0 {
			first = snap
			if ratio := snap.DeliveryRatio(); ratio < 0.95 {
				t.Errorf("dedup-correct delivery %.3f (%d/%d unique), want >= 0.95",
					ratio, snap.FramesDelivered, snap.FramesScheduled)
			}
			if snap.RateSwitches == 0 {
				t.Error("rate adapter never switched a session's rate")
			}
			switched := false
			for _, s := range snap.Sessions {
				if s.RateSwitches > 0 {
					switched = true
				}
			}
			if !switched {
				t.Error("no session records a rate switch")
			}
			if snap.Hops == 0 {
				t.Error("no session hopped off the degraded channel")
			}
			if snap.RetransmitsRecovered == 0 {
				t.Error("retransmission loop recovered nothing despite the degradation")
			}
			if snap.Recalibrations == 0 {
				t.Error("re-calibration trigger never fired despite the SNR shift")
			}
			// Churn actually happened: a tag joined and a tag left.
			if snap.TagsSeen <= 8 {
				t.Errorf("TagsSeen = %d, want > 8 (join churn)", snap.TagsSeen)
			}
			left := false
			for _, s := range snap.Sessions {
				if !s.Active {
					left = true
				}
			}
			if !left {
				t.Error("no session marks a departed tag (leave churn)")
			}
			// The degradation epoch must actually hurt channel 0.
			if reports[2].ChannelAttenDB[0] != 12 {
				t.Errorf("epoch 2 channel-0 attenuation %v, want 12", reports[2].ChannelAttenDB[0])
			}
		} else if !reflect.DeepEqual(first, snap) {
			t.Errorf("workers=%d snapshot diverged from workers=1:\n1: %+v\n%d: %+v",
				workers, first, workers, snap)
		}
	}
}

// TestGatewayRecoversAfterDegradation compares the closed loop against an
// open-loop run (no commands ever delivered): with the feedback loop
// active, delivery after a harsh degradation must come out measurably
// ahead — the paper's whole argument for a demodulating tag.
func TestGatewayRecoversAfterDegradation(t *testing.T) {
	run := func(openLoop bool) Snapshot {
		cfg := acceptanceConfig(4)
		cfg.JoinEvery, cfg.LeaveEvery, cfg.MobilitySigma = 0, 0, 0
		cfg.Degrade = []Degradation{{Epoch: 1, Channel: 0, AttenDB: 18}}
		cfg.openLoop = openLoop
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runEpochs(g, 6); err != nil {
			t.Fatal(err)
		}
		return g.Snapshot()
	}
	closed := run(false)
	open := run(true)
	if closed.Hops == 0 {
		t.Fatal("closed loop never hopped")
	}
	if open.CmdsSent != 0 {
		t.Fatalf("open loop sent %d commands, want 0", open.CmdsSent)
	}
	if closed.DeliveryRatio() < open.DeliveryRatio()+0.05 {
		t.Errorf("closed loop %.3f vs open loop %.3f: recovery should measurably improve",
			closed.DeliveryRatio(), open.DeliveryRatio())
	}
}

func TestConfigValidation(t *testing.T) {
	base := func() Config {
		c := DefaultConfig()
		c.Seed = testSeed
		return c
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative channels", func(c *Config) { c.Channels = -1 }},
		{"channels beyond command argument space", func(c *Config) { c.Channels = 257 }},
		{"negative tags", func(c *Config) { c.Tags = -2 }},
		{"inverted distances", func(c *Config) { c.MinM, c.MaxM = 50, 10 }},
		{"negative frames", func(c *Config) { c.FramesPerTag = -1 }},
		{"negative workers", func(c *Config) { c.Workers = -3 }},
		{"degrade channel range", func(c *Config) { c.Degrade = []Degradation{{Channel: 5}} }},
		{"degrade negative epoch", func(c *Config) { c.Degrade = []Degradation{{Epoch: -1}} }},
		{"bad demod", func(c *Config) { c.Demod.Oversample = 1 }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
	if _, err := New(base()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestEpochFailureLatches(t *testing.T) {
	g, err := New(acceptanceConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// An epoch failure leaves half-applied churn behind; the gateway must
	// refuse to serve further epochs rather than re-applying it.
	g.err = errSentinel
	if _, err := g.RunEpoch(context.Background()); err != errSentinel {
		t.Fatalf("RunEpoch after failure returned %v, want the latched error", err)
	}
	if g.epoch != 0 {
		t.Error("failed gateway advanced its epoch counter")
	}
}

var errSentinel = fmt.Errorf("gateway: test sentinel failure")

func TestSlidingWindow(t *testing.T) {
	w := ring.New[float64](3)
	if w.Len() != 0 || windowMean(&w) != 0 {
		t.Fatalf("fresh window: count=%d mean=%g", w.Len(), windowMean(&w))
	}
	w.Push(1)
	w.Push(2)
	if w.Len() != 2 || windowMean(&w) != 1.5 {
		t.Fatalf("after 2 pushes: count=%d mean=%g", w.Len(), windowMean(&w))
	}
	w.Push(3)
	w.Push(10) // evicts the 1
	if w.Len() != 3 || windowMean(&w) != 5 {
		t.Fatalf("after wrap: count=%d mean=%g, want 3 / 5", w.Len(), windowMean(&w))
	}
	// The mean sums in storage order, which a wrap rotates away from
	// oldest first. Storage [1e16, 1, 1] sums to 1e16 (each +1 rounds
	// away at that magnitude); oldest first, 1+1 lands before 1e16 and
	// the sum is 1e16+2. The published means sum in storage order, so an
	// oldest-first mean would change bytes.
	w = ring.New[float64](3)
	for _, v := range []float64{5, 1, 1, 1e16} { // 1e16 evicts the 5
		w.Push(v)
	}
	if got, want := windowMean(&w), 1e16/3; got != want {
		t.Fatalf("wrapped window mean = %v, want the storage-order %v (oldest first gives %v)", got, want, (1e16+2)/3)
	}
}

func TestSessionDedup(t *testing.T) {
	s := newSession(7, 4, 40)
	if !s.markDelivered(3) {
		t.Fatal("first delivery of seq 3 not fresh")
	}
	if s.markDelivered(3) {
		t.Fatal("second delivery of seq 3 reported fresh")
	}
	if s.duplicates != 1 || s.deliveredN != 1 {
		t.Fatalf("dup=%d delivered=%d, want 1/1", s.duplicates, s.deliveredN)
	}
	s.markMissing(5)
	s.markMissing(5) // idempotent
	s.markMissing(3) // already delivered: not missing
	if len(s.missing) != 1 || s.missing[0].seq != 5 {
		t.Fatalf("missing = %+v, want [seq 5]", s.missing)
	}
	if !s.markDelivered(5) {
		t.Fatal("recovery of seq 5 not fresh")
	}
	if len(s.missing) != 0 {
		t.Fatalf("missing after recovery = %+v, want empty", s.missing)
	}
}

func TestBERModelShape(t *testing.T) {
	cfg, err := DefaultConfig().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	g := &Gateway{cfg: cfg}
	s := newSession(0, 8, 50)
	// Monotone in K: more bits per chirp can never lower the estimate.
	prev := 0.0
	for k := 1; k <= 3; k++ {
		ber := g.berForRate(s, k)
		if ber < prev {
			t.Errorf("ber(K=%d)=%g below ber(K=%d)=%g", k, ber, k-1, prev)
		}
		prev = ber
	}
	// Monotone in SNR: a stronger link never raises it.
	weak := newSession(0, 8, 30)
	if g.berForRate(weak, 2) <= g.berForRate(s, 2) {
		t.Error("weaker link did not raise the BER estimate")
	}
	// A lossy delivery window vetoes everything above the floor rate.
	lossy := newSession(0, 8, 60)
	for i := 0; i < 8; i++ {
		lossy.prr.Push(0)
	}
	if ber := g.berForRate(lossy, 2); ber <= adapter.BERTarget {
		t.Errorf("lossy window ber(K=2)=%g, want above target %g", ber, adapter.BERTarget)
	}
	if ber := g.berForRate(lossy, 1); ber > 0.5 {
		t.Errorf("floor rate ber=%g escaped clamp", ber)
	}
}

func TestDownlinkPRRClamps(t *testing.T) {
	g := &Gateway{}
	lo := newSession(0, 4, -100)
	hi := newSession(0, 4, 100)
	if p := g.downlinkPRR(lo); p != 0.05 {
		t.Errorf("hopeless link downlink PRR %g, want clamp 0.05", p)
	}
	if p := g.downlinkPRR(hi); p != 0.98 {
		t.Errorf("perfect link downlink PRR %g, want clamp 0.98", p)
	}
}

func TestChurnJoinLeave(t *testing.T) {
	cfg := acceptanceConfig(1)
	cfg.Degrade = nil
	cfg.JoinEvery, cfg.LeaveEvery = 2, 3
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.tags) != 8 {
		t.Fatalf("initial population %d, want 8", len(g.tags))
	}
	g.applyChurn(2) // join epoch
	if len(g.tags) != 9 || g.nextID != 9 {
		t.Fatalf("after join: %d tags, nextID %d", len(g.tags), g.nextID)
	}
	g.applyChurn(3) // leave epoch: oldest (tag 0) departs
	if len(g.tags) != 8 {
		t.Fatalf("after leave: %d tags", len(g.tags))
	}
	if _, alive := g.tags[0]; alive {
		t.Error("oldest tag still deployed after leave")
	}
	if g.sessions[0].active {
		t.Error("departed tag's session still active")
	}
	snap := g.Snapshot()
	found := false
	for _, s := range snap.Sessions {
		if s.Tag == 0 {
			found = true
			if s.Active {
				t.Error("departed session snapshots as active")
			}
		}
	}
	if !found {
		t.Error("departed session missing from snapshot")
	}
}

func TestBestChannelPrefersLowestAttenuation(t *testing.T) {
	g := &Gateway{atten: []float64{12, 0, 3}}
	if ch := g.bestChannel(); ch != 1 {
		t.Errorf("best channel %d, want 1", ch)
	}
	g.atten = []float64{0, 0, 0}
	if ch := g.bestChannel(); ch != 0 {
		t.Errorf("tie broke to %d, want 0", ch)
	}
}

func TestAddrOfWrapsBelowBroadcast(t *testing.T) {
	if addrOf(254) != 254 || addrOf(255) != 0 || addrOf(300) != 45 {
		t.Error("addrOf mapping wrong")
	}
	if addrOf(1000) >= mac.BroadcastAddr {
		t.Error("addrOf reached the broadcast address")
	}
}

func TestSnapshotStableAcrossCalls(t *testing.T) {
	g, err := New(acceptanceConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	reports, err := runEpochs(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.Snapshot(), g.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Error("back-to-back snapshots differ")
	}
	if reports[0].Elapsed <= 0 {
		t.Error("elapsed clock did not advance")
	}
}
