package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"saiyan/internal/health"
	"saiyan/internal/obs"
)

// seriesNames lists the store's series, in registration order, through
// the /timeseries list document.
func seriesNames(t *testing.T, st *health.Store) []string {
	t.Helper()
	var doc struct{ Series []struct{ Name string } }
	if err := json.Unmarshal(st.TimeseriesJSON("", 0), &doc); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(doc.Series))
	for i, s := range doc.Series {
		names[i] = s.Name
	}
	return names
}

// rawBin is one tier-0 bin of the /timeseries document. A raw bin holds
// a single point, so its mean is the appended value.
type rawBin struct {
	Epoch int
	Mean  float64
}

// rawBins reads one series' raw tier through the /timeseries document.
func rawBins(t *testing.T, st *health.Store, name string) []rawBin {
	t.Helper()
	var doc struct{ Bins []rawBin }
	if err := json.Unmarshal(st.TimeseriesJSON(name, 0), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Bins
}

// TestHealthDeterminism pins the health plane's determinism contract
// from Config.Health: per-epoch wire deltas (the exact 0x19 payload
// bytes), the full rollup buffers at every tier, and the alert journal
// are byte-identical across 1/4/8 workers and metrics on/off — the same
// bar as TestFlightDumpDeterminism and TestSnapshotDeterministicAcrossWorkers.
func TestHealthDeterminism(t *testing.T) {
	const epochs = 8
	type capture struct {
		deltas [][]byte // DeltaJSON after each epoch == wire 0x19 payloads
		series [][]byte // TimeseriesJSON per series per tier
		health []byte   // journal + active alerts
	}
	run := func(workers int, reg *obs.Registry) capture {
		t.Helper()
		st, err := health.New(health.Options{Rules: health.DefaultRules()})
		if err != nil {
			t.Fatal(err)
		}
		cfg := acceptanceConfig(workers)
		cfg.Metrics = reg
		cfg.Health = st
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var c capture
		for i := 0; i < epochs; i++ {
			if _, err := g.RunEpoch(context.Background()); err != nil {
				t.Fatalf("workers=%d metrics=%v epoch %d: %v", workers, reg != nil, i, err)
			}
			c.deltas = append(c.deltas, st.DeltaJSON())
		}
		for _, name := range seriesNames(t, st) {
			for tier := 0; ; tier++ {
				b := st.TimeseriesJSON(name, tier)
				if b == nil {
					break
				}
				c.series = append(c.series, b)
			}
		}
		c.health = st.HealthJSON()
		return c
	}

	baseline := run(1, nil)
	if len(baseline.series) == 0 {
		t.Fatal("no series registered")
	}
	// The epoch-2 jam must actually drive the health plane: the
	// prr-degraded rule has to fire with exemplar traces attached.
	var doc struct {
		Journal []health.Alert `json:"journal"`
	}
	if err := json.Unmarshal(baseline.health, &doc); err != nil {
		t.Fatal(err)
	}
	fired := false
	for _, a := range doc.Journal {
		if a.Rule == "prr-degraded" && a.State == health.StateFiring {
			fired = true
			if len(a.Traces) == 0 {
				t.Errorf("prr-degraded fired without exemplar traces: %+v", a)
			}
		}
	}
	if !fired {
		t.Errorf("prr-degraded never fired; journal: %s", baseline.health)
	}

	for _, workers := range []int{1, 4, 8} {
		for _, withMetrics := range []bool{false, true} {
			var reg *obs.Registry
			if withMetrics {
				reg = obs.NewRegistry()
			}
			got := run(workers, reg)
			for i := range baseline.deltas {
				if !bytes.Equal(got.deltas[i], baseline.deltas[i]) {
					t.Errorf("workers=%d metrics=%v: epoch %d delta diverged:\n got %s\nwant %s",
						workers, withMetrics, i, got.deltas[i], baseline.deltas[i])
				}
			}
			if len(got.series) != len(baseline.series) {
				t.Errorf("workers=%d metrics=%v: %d series dumps, want %d",
					workers, withMetrics, len(got.series), len(baseline.series))
				continue
			}
			for i := range baseline.series {
				if !bytes.Equal(got.series[i], baseline.series[i]) {
					t.Errorf("workers=%d metrics=%v: rollup dump %d diverged", workers, withMetrics, i)
				}
			}
			if !bytes.Equal(got.health, baseline.health) {
				t.Errorf("workers=%d metrics=%v: journal diverged:\n got %s\nwant %s",
					workers, withMetrics, got.health, baseline.health)
			}
		}
	}
}

// TestHealthSeriesMirrorReports cross-checks scalar series against the
// epoch reports they are derived from.
func TestHealthSeriesMirrorReports(t *testing.T) {
	st, err := health.New(health.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := acceptanceConfig(2)
	cfg.Health = st
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := runEpochs(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		series string
		want   func(r EpochReport) float64
	}{
		{"gateway.delivery_ratio", func(r EpochReport) float64 { return r.DeliveryRatio }},
		{"gateway.frames_scheduled", func(r EpochReport) float64 { return float64(r.FramesScheduled) }},
		{"gateway.retransmits", func(r EpochReport) float64 { return float64(r.Retransmits) }},
		{"gateway.tags_active", func(r EpochReport) float64 { return float64(r.TagsActive) }},
		{"gateway.fxp_cycles", func(r EpochReport) float64 { return float64(r.FxpCycles) }},
	}
	for _, c := range checks {
		bins := rawBins(t, st, c.series)
		if len(bins) != len(reports) {
			t.Errorf("%s: %d bins, want %d", c.series, len(bins), len(reports))
			continue
		}
		for i, r := range reports {
			if bins[i].Mean != c.want(r) {
				t.Errorf("%s epoch %d: %g, want %g", c.series, i, bins[i].Mean, c.want(r))
			}
			if int(bins[i].Epoch) != r.Epoch {
				t.Errorf("%s bin %d labeled epoch %d, want %d", c.series, i, bins[i].Epoch, r.Epoch)
			}
		}
	}
	// Per-rate frame counts partition the schedule.
	var rateSum float64
	for _, name := range seriesNames(t, st) {
		if len(name) > 5 && name[:5] == "rate." {
			for _, b := range rawBins(t, st, name) {
				rateSum += b.Mean
			}
		}
	}
	var schedSum float64
	for _, r := range reports {
		schedSum += float64(r.FramesScheduled)
	}
	if rateSum != schedSum {
		t.Errorf("per-rate frames sum %g != frames scheduled %g", rateSum, schedSum)
	}
}
