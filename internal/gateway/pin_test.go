package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"saiyan/internal/flight"
	"saiyan/internal/health"
	"saiyan/internal/pins"
)

// gatewayOutput serves epochs acceptance epochs at the given worker count
// and returns, in the order they are produced: every encoded flight dump,
// every frame event's JSON, and after each epoch the report's JSON (with
// the wall-clock Elapsed zeroed) and the health delta; then the final
// snapshot's JSON and the health journal. It also returns the most
// error-free frames any one tag delivered, each of which pushed a sample
// into all three of the tag's link windows.
func gatewayOutput(t *testing.T, workers, epochs int) ([]byte, int) {
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
	most := 0
	for _, n := range correct {
		most = max(most, n)
	}
	return out, most
}

// TestGatewayOutputPinned pins everything the acceptance run publishes
// over 8 epochs with the flight and health planes attached, at 1 and 4
// workers. Unlike the cross-worker determinism tests, it holds across
// commits: a change that moves a single published byte fails here.
func TestGatewayOutputPinned(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			out, _ := gatewayOutput(t, workers, 8)
			pins.Check(t, "gateway/output", out)
		})
	}
}

// TestGatewayOutputPinnedWrapped pins the output of a run of 24 epochs, at
// 1 and 4 workers: long enough that every long-lived tag's
// statsWindow-frame PRR, SNR and offset windows wrap, so the windowed
// means sum in rotated storage order. The 8-epoch pin fills a window at
// most exactly and never sees a wrap.
func TestGatewayOutputPinnedWrapped(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			out, most := gatewayOutput(t, workers, 24)
			if most <= statsWindow {
				t.Fatalf("no tag delivered more than %d frames (most %d): the link windows never wrap", statsWindow, most)
			}
			pins.Check(t, "gateway/output-wrapped", out)
		})
	}
}
