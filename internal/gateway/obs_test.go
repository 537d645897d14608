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
	run := func(cfg Config, reg *obs.Registry, epochs int) ([]byte, Snapshot) {
		t.Helper()
		cfg.Metrics = reg
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runEpochs(g, epochs); err != nil {
			t.Fatalf("workers=%d metrics=%v: %v", cfg.Workers, reg != nil, err)
		}
		snap := g.Snapshot()
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return b, snap
	}

	baseline, _ := run(acceptanceConfig(1), nil, epochs)
	for _, workers := range []int{1, 4, 8} {
		for _, withMetrics := range []bool{false, true} {
			var reg *obs.Registry
			if withMetrics {
				reg = obs.NewRegistry()
			}
			got, snap := run(acceptanceConfig(workers), reg, epochs)
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
			checkGatewaySeries(t, workers, reg, snap, epochs)
		}
	}

	// The acceptance run never misses a command inside 6 epochs, nor runs
	// a frame out of retries. A 40 dB fade on channel 0 from epoch 1 does
	// both within 8.
	const lossyEpochs = 8
	lossy := acceptanceConfig(2)
	lossy.Degrade = []Degradation{{Epoch: 1, Channel: 0, AttenDB: 40}}
	dark, _ := run(lossy, nil, lossyEpochs)
	reg := obs.NewRegistry()
	lit, snap := run(lossy, reg, lossyEpochs)
	if string(lit) != string(dark) {
		t.Errorf("lossy run: snapshot with metrics diverged from metrics off:\nbase: %s\ngot:  %s", dark, lit)
	}
	if snap.CmdsMissed == 0 || abandonedFrames(snap) == 0 {
		t.Fatalf("lossy run missed %d commands and abandoned %d frames, want both > 0", snap.CmdsMissed, abandonedFrames(snap))
	}
	checkGatewaySeries(t, lossy.Workers, reg, snap, lossyEpochs)
}

// abandonedFrames counts the frames the retransmit loop gave up on: a
// scheduled frame is delivered, still pending retransmission, or
// abandoned once its retry budget runs out.
func abandonedFrames(snap Snapshot) uint64 {
	var n uint64
	for _, s := range snap.Sessions {
		n += s.Scheduled - s.Delivered - uint64(s.Pending)
	}
	return n
}

// checkGatewaySeries holds every gateway metric call site to the run's
// own totals: the per-opcode command outcomes sum to the snapshot's
// delivered and missed commands, the retransmit counters match the
// control loop's retransmit commands and the frames it gave up on, and
// each epoch stage histogram holds one observation per epoch.
func checkGatewaySeries(t *testing.T, workers int, reg *obs.Registry, snap Snapshot, epochs int) {
	t.Helper()
	series := make(map[string]obs.MetricSnapshot)
	for _, m := range reg.Snapshot() {
		series[m.Name] = m
	}
	var delivered, missed float64
	for name, m := range series {
		switch {
		case !strings.HasPrefix(name, "saiyan_gateway_cmds_total{"):
		case strings.HasSuffix(name, `outcome="delivered"}`):
			delivered += m.Value
		case strings.HasSuffix(name, `outcome="missed"}`):
			missed += m.Value
		default:
			t.Errorf("workers=%d: unexpected command series %s", workers, name)
		}
	}
	if delivered != float64(snap.CmdsDelivered) || missed != float64(snap.CmdsMissed) {
		t.Errorf("workers=%d: per-opcode commands delivered/missed = %v/%v, snapshot %d/%d",
			workers, delivered, missed, snap.CmdsDelivered, snap.CmdsMissed)
	}

	// Every retransmit attempt is one OpRetransmit command, and a
	// delivered one schedules the frame.
	retxDelivered := series[`saiyan_gateway_cmds_total{op="retransmit",outcome="delivered"}`].Value
	retxMissed := series[`saiyan_gateway_cmds_total{op="retransmit",outcome="missed"}`].Value
	if got := series["saiyan_gateway_retx_attempts_total"].Value; got != retxDelivered+retxMissed || got == 0 {
		t.Errorf("workers=%d: saiyan_gateway_retx_attempts_total = %v, want %v retransmit commands (> 0)",
			workers, got, retxDelivered+retxMissed)
	}
	if retxDelivered != float64(snap.RetransmitsScheduled) {
		t.Errorf("workers=%d: delivered retransmit commands = %v, snapshot schedules %d",
			workers, retxDelivered, snap.RetransmitsScheduled)
	}
	abandoned := abandonedFrames(snap)
	if got := series["saiyan_gateway_retx_abandoned_total"].Value; got != float64(abandoned) {
		t.Errorf("workers=%d: saiyan_gateway_retx_abandoned_total = %v, sessions abandoned %d", workers, got, abandoned)
	}

	for _, stage := range []string{"render", "decode", "ingest", "control", "epoch"} {
		name := `saiyan_gateway_stage_seconds{stage="` + stage + `"}`
		if got := series[name].Count; got != uint64(epochs) {
			t.Errorf("workers=%d: %s counts %d observations, want %d", workers, name, got, epochs)
		}
	}
}
