package gateway

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"saiyan/internal/flight"
	"saiyan/internal/health"
)

// gatewayOutputPin is the SHA-256 of everything the acceptance run
// publishes over 8 epochs with the flight and health planes attached
// (see gatewayOutputHash). Unlike the cross-worker determinism tests, it
// holds across commits: a change that moves a single published byte fails
// here. A change that alters the output on purpose regenerates the pin and
// says so, as with the golden trace.
const gatewayOutputPin = "be0083874d9099186bc22ce9c347d0aa04d2729bcfe59a04d80d2f58ed67988a"

// gatewayWrapPin is gatewayOutputPin over gatewayWrapEpochs epochs: long
// enough that every long-lived tag's statsWindow-frame PRR, SNR and offset
// windows wrap, so the windowed means sum in rotated storage order. The
// 8-epoch pin fills a window at most exactly and never sees a wrap.
const gatewayWrapPin = "0c19b64231d2e0837d891f53a3133f5a8503d92185e288761196d921c211411d"

// gatewayWrapEpochs is the epoch count of gatewayWrapPin.
const gatewayWrapEpochs = 24

// gatewayOutputHash serves epochs acceptance epochs at the given worker
// count and hashes, in the order they are produced: every encoded flight
// dump, every frame event's JSON, and after each epoch the report's JSON
// (with the wall-clock Elapsed zeroed) and the health delta; then the
// final snapshot's JSON and the health journal. It also returns the most
// error-free frames any one tag delivered, each of which pushed a sample
// into all three of the tag's link windows.
func gatewayOutputHash(t *testing.T, workers, epochs int) (string, int) {
	t.Helper()
	var out []byte
	rec := flight.New(flight.Options{Shards: workers + 1})
	rec.SetHook(func(d flight.Dump) { out = flight.EncodeDump(out, d) })
	st, err := health.New(health.Options{Rules: health.DefaultRules()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := acceptanceConfig(workers)
	cfg.Flight = rec
	cfg.Health = st
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendJSON := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	correct := map[int]int{}
	g.SetFrameHook(func(ev FrameEvent) {
		appendJSON(ev)
		if ev.Correct {
			correct[ev.Tag]++
		}
	})
	for i := 0; i < epochs; i++ {
		rep, err := g.RunEpoch(context.Background())
		if err != nil {
			t.Fatalf("workers=%d epoch %d: %v", workers, i, err)
		}
		rep.Elapsed = 0
		appendJSON(rep)
		out = append(out, st.DeltaJSON()...)
	}
	appendJSON(g.Snapshot())
	out = append(out, st.HealthJSON()...)
	sum := sha256.Sum256(out)
	most := 0
	for _, n := range correct {
		most = max(most, n)
	}
	return hex.EncodeToString(sum[:]), most
}

// TestGatewayOutputPinned pins the gateway's published output across
// commits, at 1 and 4 workers.
func TestGatewayOutputPinned(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if got, _ := gatewayOutputHash(t, workers, 8); got != gatewayOutputPin {
			t.Errorf("workers=%d: output hash %s, want %s", workers, got, gatewayOutputPin)
		}
	}
}

// TestGatewayOutputPinnedWrapped pins the output of a run long enough to
// wrap the per-tag link windows, at 1 and 4 workers.
func TestGatewayOutputPinnedWrapped(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got, most := gatewayOutputHash(t, workers, gatewayWrapEpochs)
		if most <= statsWindow {
			t.Fatalf("workers=%d: no tag delivered more than %d frames (most %d): the link windows never wrap", workers, statsWindow, most)
		}
		if got != gatewayWrapPin {
			t.Errorf("workers=%d: output hash %s, want %s", workers, got, gatewayWrapPin)
		}
	}
}
