package saiyan_test

// The wire protocol (internal/server, re-exported as saiyan.NewServer)
// ships EpochReport, Snapshot, StreamStats, ClientStats, and obs-dump
// (MetricSnapshot) payloads as JSON. Their
// field names are therefore a versioned schema, not an implementation
// detail: this test locks the exact key set of every metrics payload and
// proves each type survives a marshal/unmarshal round trip unchanged.
// Renaming or dropping a key is a protocol break and must fail here first.

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"time"

	"saiyan"
	"saiyan/internal/gateway"
)

// keysOf marshals v and returns the sorted top-level JSON keys.
func keysOf(t *testing.T, v any) []string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal %T into map: %v", v, err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func wantKeys(t *testing.T, v any, want []string) {
	t.Helper()
	sort.Strings(want)
	if got := keysOf(t, v); !reflect.DeepEqual(got, want) {
		t.Errorf("%T schema drifted:\n got  %v\n want %v", v, got, want)
	}
}

// roundTrip marshals src and unmarshals into dst (a pointer to the same
// type), then requires equality.
func roundTrip(t *testing.T, src, dst any) {
	t.Helper()
	raw, err := json.Marshal(src)
	if err != nil {
		t.Fatalf("marshal %T: %v", src, err)
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		t.Fatalf("unmarshal %T: %v", src, err)
	}
	if got := reflect.ValueOf(dst).Elem().Interface(); !reflect.DeepEqual(got, src) {
		t.Errorf("%T did not survive the JSON round trip:\n in  %+v\n out %+v", src, src, got)
	}
}

func TestEpochReportSchema(t *testing.T) {
	rep := saiyan.GatewayEpochReport{
		Epoch: 3, TagsActive: 8,
		FramesScheduled: 20, Retransmits: 2, FreshDelivered: 17, WindowsEmitted: 19,
		CmdsSent: 5, CmdsDelivered: 4, RateSwitches: 1, Hops: 1, Recalibrations: 1,
		ChannelAttenDB: []float64{0, 12},
		FxpCycles:      1234,
		DeliveryRatio:  0.95,
		Elapsed:        42 * time.Millisecond,
	}
	wantKeys(t, rep, []string{
		"epoch", "tags_active", "frames_scheduled", "retransmits", "fresh_delivered",
		"windows_emitted", "cmds_sent", "cmds_delivered", "rate_switches", "hops",
		"recalibrations", "channel_atten_db", "fxp_cycles", "delivery_ratio", "elapsed_ns",
	})
	var back saiyan.GatewayEpochReport
	roundTrip(t, rep, &back)
}

func TestSnapshotSchema(t *testing.T) {
	snap := saiyan.GatewayStats{
		Epochs: 5, TagsSeen: 10, TagsActive: 8,
		FramesScheduled: 100, FramesDelivered: 96, FramesDuplicate: 3,
		RetransmitsScheduled: 6, RetransmitsRecovered: 5,
		WindowsEmitted: 99, WindowsUnmatched: 1, SymbolsChecked: 1600, SymbolErrs: 7,
		CmdsSent: 20, CmdsDelivered: 18, CmdsMissed: 2,
		RateSwitches: 4, Hops: 2, Recalibrations: 3, FxpCycles: 9,
		Channels: []gateway.ChannelSnapshot{{
			Channel: 0, AttenDB: 12, Tags: 4, NoiseBaseline: 0.01, NoiseSigma: 0.002,
		}},
		Sessions: []gateway.SessionSnapshot{{
			Tag: 1, Channel: 0, RateK: 2, Active: true,
			Scheduled: 12, Delivered: 11, Duplicates: 1, Pending: 1,
			RetransmitsScheduled: 2, RetransmitsRecovered: 1,
			WindowPRR: 0.9, SNREstDB: 31.5, MeanAbsOffset: 1.5,
			RateSwitches: 1, Hops: 1, Recalibrations: 1, CmdsDelivered: 4, CmdsMissed: 1,
		}},
	}
	wantKeys(t, snap, []string{
		"epochs", "tags_seen", "tags_active",
		"frames_scheduled", "frames_delivered", "frames_duplicate",
		"retransmits_scheduled", "retransmits_recovered",
		"windows_emitted", "windows_unmatched", "symbols_checked", "symbol_errs",
		"cmds_sent", "cmds_delivered", "cmds_missed",
		"rate_switches", "hops", "recalibrations", "fxp_cycles",
		"channels", "sessions",
	})
	wantKeys(t, snap.Channels[0], []string{
		"channel", "atten_db", "tags", "noise_baseline", "noise_sigma",
	})
	wantKeys(t, snap.Sessions[0], []string{
		"tag", "channel", "rate_k", "active",
		"scheduled", "delivered", "duplicates", "pending",
		"retransmits_scheduled", "retransmits_recovered",
		"window_prr", "snr_est_db", "mean_abs_offset",
		"rate_switches", "hops", "recalibrations", "cmds_delivered", "cmds_missed",
	})
	var back saiyan.GatewayStats
	roundTrip(t, snap, &back)
}

func TestStreamStatsSchema(t *testing.T) {
	st := saiyan.StreamStats{
		Stats: saiyan.PipelineStats{
			Workers: 4, FramesIn: 10, FramesOut: 10, FramesDetected: 9,
			FramesChecked: 9, FramesCorrect: 8, Symbols: 144, SymbolErrs: 2,
			SimSamples: 1 << 20, FxpCycles: 77, Elapsed: time.Second,
		},
		FramesScheduled: 10, WindowsEmitted: 9, WindowsMatched: 9, SamplesIn: 65536,
	}
	// The embedded pipeline.Stats flattens into the same JSON object.
	wantKeys(t, st, []string{
		"workers", "frames_in", "frames_out", "frames_detected", "frames_checked",
		"frames_correct", "symbols", "symbol_errs", "sim_samples", "fxp_cycles", "elapsed_ns",
		"frames_scheduled", "windows_emitted", "windows_matched", "samples_in",
	})
	var back saiyan.StreamStats
	roundTrip(t, st, &back)
}

func TestFrameEventSchema(t *testing.T) {
	ev := saiyan.GatewayFrameEvent{
		Epoch: 2, Channel: 1, Tag: 7, RateK: 2, Seq: 13,
		Retransmit: true, Detected: true, Correct: true, Fresh: true,
		SymbolErrs: 0, OffsetSamples: -3, RSSDBm: -71.25,
	}
	wantKeys(t, ev, []string{
		"epoch", "channel", "tag", "rate_k", "seq",
		"retransmit", "detected", "correct", "fresh",
		"symbol_errs", "offset_samples", "rss_dbm",
	})
	var back saiyan.GatewayFrameEvent
	roundTrip(t, ev, &back)
}

// TestClientStatsSchema pins the 0x14 client-stats payload, including the
// slow-consumer evidence added in protocol v2 (queue high-water mark and
// bytes written).
func TestClientStatsSchema(t *testing.T) {
	st := saiyan.ServerClientStats{
		Epoch: 4, FramesSent: 32, FramesDropped: 2, MetricsSent: 8, MetricsDropped: 1,
		QueueHWM: 7, BytesWritten: 4096,
	}
	wantKeys(t, st, []string{
		"epoch", "frames_sent", "frames_dropped", "metrics_sent", "metrics_dropped",
		"queue_hwm", "bytes_written",
	})
	var back saiyan.ServerClientStats
	roundTrip(t, st, &back)
}

// TestMetricSnapshotSchema pins one series of the 0x17 obs dump (also the
// /snapshot-adjacent registry JSON). Scalar fields are omitempty, so the
// fixture sets every one to keep the full key set visible.
func TestMetricSnapshotSchema(t *testing.T) {
	m := saiyan.MetricSnapshot{
		Name: "saiyan_pipeline_decode_seconds", Kind: "histogram",
		Value: 1, Count: 3, Sum: 0.5,
		Bounds: []float64{0.001, 0.002}, Counts: []uint64{1, 1, 1},
		Exemplars: []string{"00000000deadbeef", "", ""},
	}
	wantKeys(t, m, []string{"name", "kind", "value", "count", "sum", "bounds", "counts", "exemplars"})
	var back saiyan.MetricSnapshot
	roundTrip(t, m, &back)
}
