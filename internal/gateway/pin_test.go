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

// gatewayOutputHash serves 8 acceptance epochs at the given worker count
// and hashes, in the order they are produced: every encoded flight dump,
// every frame event's JSON, and after each epoch the report's JSON (with
// the wall-clock Elapsed zeroed) and the health delta; then the final
// snapshot's JSON and the health journal.
func gatewayOutputHash(t *testing.T, workers int) string {
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
	g.SetFrameHook(func(ev FrameEvent) { appendJSON(ev) })
	for i := 0; i < 8; i++ {
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
	return hex.EncodeToString(sum[:])
}

// TestGatewayOutputPinned pins the gateway's published output across
// commits, at 1 and 4 workers.
func TestGatewayOutputPinned(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if got := gatewayOutputHash(t, workers); got != gatewayOutputPin {
			t.Errorf("workers=%d: output hash %s, want %s", workers, got, gatewayOutputPin)
		}
	}
}
