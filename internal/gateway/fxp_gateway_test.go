package gateway

import (
	"reflect"
	"testing"

	"saiyan/internal/core"
)

// TestGatewayFxpDatapath serves a small deployment on the fixed-point MCU
// datapath: the closed loop must work end to end, the Snapshot — now
// carrying the cycle ledger — must stay byte-identical across worker
// counts, and the per-epoch reports must attribute a non-zero cycle budget
// to every epoch that decoded frames.
func TestGatewayFxpDatapath(t *testing.T) {
	const epochs = 3
	var first Snapshot
	for i, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Seed = testSeed
		cfg.Workers = workers
		cfg.Channels = 2
		cfg.Tags = 4
		cfg.FramesPerTag = 2
		cfg.Demod.Datapath = core.DatapathFixed
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reports, err := runEpochs(g, epochs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, rep := range reports {
			if rep.FramesScheduled > 0 && rep.FxpCycles == 0 {
				t.Errorf("workers=%d epoch %d: %d frames scheduled but no fxp cycles",
					workers, rep.Epoch, rep.FramesScheduled)
			}
		}
		snap := g.Snapshot()
		if snap.FxpCycles == 0 {
			t.Fatalf("workers=%d: gateway snapshot carries no fxp cycles", workers)
		}
		if ratio := snap.DeliveryRatio(); ratio < 0.9 {
			t.Errorf("workers=%d: fxp delivery %.3f, want >= 0.9", workers, ratio)
		}
		if i == 0 {
			first = snap
			continue
		}
		if !reflect.DeepEqual(first, snap) {
			t.Errorf("workers=%d: snapshot (incl. cycle ledger) diverged:\n%+v\nvs\n%+v", workers, first, snap)
		}
	}
}
