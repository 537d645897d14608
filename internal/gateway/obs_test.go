package gateway

import (
	"encoding/json"
	"strings"
	"testing"

	"saiyan/internal/obs"
)

// TestSnapshotDeterminismWithMetrics pins the observability contract from
// Config.Metrics: the registry is write-only, so attaching one must not
// perturb a single decode, command draw, or session counter. The marshaled
// Snapshot must stay byte-identical across metrics on/off and any worker
// count.
func TestSnapshotDeterminismWithMetrics(t *testing.T) {
	const epochs = 6
	run := func(workers int, reg *obs.Registry) []byte {
		t.Helper()
		cfg := acceptanceConfig(workers)
		cfg.Metrics = reg
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runEpochs(g, epochs); err != nil {
			t.Fatalf("workers=%d metrics=%v: %v", workers, reg != nil, err)
		}
		b, err := json.Marshal(g.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	baseline := run(1, nil)
	for _, workers := range []int{1, 4, 8} {
		for _, withMetrics := range []bool{false, true} {
			var reg *obs.Registry
			if withMetrics {
				reg = obs.NewRegistry()
			}
			got := run(workers, reg)
			if string(got) != string(baseline) {
				t.Errorf("workers=%d metrics=%v: snapshot diverged from workers=1 metrics=off:\nbase: %s\ngot:  %s",
					workers, withMetrics, baseline, got)
			}
			if !withMetrics {
				continue
			}
			// The registry must actually have watched the run: the epoch
			// counter and at least one pipeline-side series are live.
			dump := reg.Snapshot()
			series := make(map[string]obs.MetricSnapshot, len(dump))
			for _, m := range dump {
				series[m.Name] = m
			}
			if got := series["saiyan_gateway_epochs_total"].Value; got != epochs {
				t.Errorf("workers=%d: saiyan_gateway_epochs_total = %v, want %d", workers, got, epochs)
			}
			if got := series["saiyan_pipeline_frames_total"].Value; got <= 0 {
				t.Errorf("workers=%d: saiyan_pipeline_frames_total = %v, want > 0", workers, got)
			}
			var sawStage bool
			for name := range series {
				if strings.HasPrefix(name, "saiyan_gateway_stage_seconds") {
					sawStage = true
				}
			}
			if !sawStage {
				t.Errorf("workers=%d: no saiyan_gateway_stage_seconds series registered", workers)
			}
		}
	}
}
