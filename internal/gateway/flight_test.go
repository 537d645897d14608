package gateway

import (
	"bytes"

	"testing"

	"saiyan/internal/flight"
	"saiyan/internal/obs"
)

// TestFlightDumpDeterminism pins the flight recorder's determinism
// contract from Config.Flight: anomaly black-box dumps are a pure
// function of the seed. The encoded dump stream (order, IDs, trace
// sets, span contents) must stay byte-identical across 1/4/8 workers
// and metrics on/off, even though worker→job placement scatters spans
// across ring shards differently on every run.
func TestFlightDumpDeterminism(t *testing.T) {
	const epochs = 6
	run := func(workers int, reg *obs.Registry) [][]byte {
		t.Helper()
		rec := flight.New(flight.Options{Shards: workers + 1})
		var dumps [][]byte
		rec.SetHook(func(d flight.Dump) {
			dumps = append(dumps, flight.EncodeDump(nil, d))
		})
		cfg := acceptanceConfig(workers)
		cfg.Metrics = reg
		cfg.Flight = rec
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runEpochs(g, epochs); err != nil {
			t.Fatalf("workers=%d metrics=%v: %v", workers, reg != nil, err)
		}
		return dumps
	}

	baseline := run(1, nil)
	if len(baseline) == 0 {
		t.Fatal("acceptance run produced no anomaly dumps; the epoch-2 jam should force decode failures")
	}
	// The jam must have produced at least one decode-failure black box
	// with a non-empty span chain.
	sawFailure := false
	for _, raw := range baseline {
		d, err := flight.DecodeDump(raw)
		if err != nil {
			t.Fatalf("baseline dump does not round-trip: %v", err)
		}
		if d.Kind == flight.KindDecodeFailure && len(d.Spans) > 0 {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Error("no decode-failure dump with spans in the baseline run")
	}

	for _, workers := range []int{1, 4, 8} {
		for _, withMetrics := range []bool{false, true} {
			var reg *obs.Registry
			if withMetrics {
				reg = obs.NewRegistry()
			}
			got := run(workers, reg)
			if len(got) != len(baseline) {
				t.Errorf("workers=%d metrics=%v: %d dumps, want %d",
					workers, withMetrics, len(got), len(baseline))
				continue
			}
			for i := range got {
				if !bytes.Equal(got[i], baseline[i]) {
					t.Errorf("workers=%d metrics=%v: dump %d diverged from workers=1 metrics=off",
						workers, withMetrics, i)
				}
			}
		}
	}
}
