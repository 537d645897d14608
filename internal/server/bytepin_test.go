package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"saiyan/internal/chunk"
	"saiyan/internal/core"
	"saiyan/internal/flight"
	"saiyan/internal/gateway"
	"saiyan/internal/trace"
)

// pinnedTrace encodes a small uncompressed trace: header, three records
// covering every optional section, trailer.
func pinnedTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{
		Demod: core.DefaultConfig(), Seed: 20220404, CalibrationQuantumDB: 1,
		Description: "byte pin",
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := []*trace.Record{
		{Seq: 0, Tag: 3, RSSDBm: -71.25, Payload: []uint16{1, 0, 1, 1}, Want: []uint16{1, 0, 1, 1},
			Detected: true, HasDecoded: true, Decoded: []uint16{1, 0, 1, 1}},
		{Seq: 1, Tag: -1, RSSDBm: -113.5, NoiseSeed: 1, Payload: []uint16{0, 1},
			HasDecoded: true, Decoded: []uint16{}},
		{Seq: 2, Tag: 9, RSSDBm: -88, NoiseSeed: 77, Payload: []uint16{1},
			Traj: []float64{433.5e6, 433.6e6}, Env: []float64{0.25, 0.5, 1}},
	}
	for _, r := range recs {
		if err := w.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pinnedDump encodes a flight dump with two spans.
func pinnedDump() []byte {
	tr := flight.TraceID(7, 2, 4, 99)
	return flight.EncodeDump(nil, flight.Dump{
		ID: 3, Kind: flight.KindHop, Epoch: 7, Channel: 2, Tag: 4, Seq: 99,
		Traces: []uint64{tr},
		Spans: []flight.Span{
			{Trace: tr, Seq: 99, Epoch: 7, Tag: 4, Channel: 2, Stage: flight.StageSegment, Decision: flight.WindowMatched, A: -85.25, B: 4096},
			{Trace: tr, Seq: 99, Epoch: 7, Tag: 4, Channel: 2, Stage: flight.StageControl, Decision: flight.Hop, A: 2},
		},
	})
}

// pinnedWire encodes a prelude followed by one message of every type
// the protocol defines, client-to-server then server-to-client. JSON
// payloads are fixed strings so the pin covers framing and the binary
// payload codecs, not the JSON layout of gateway types.
func pinnedWire(t *testing.T) []byte {
	t.Helper()
	plan, err := encodeChannelPlan([]TagMove{{Tag: 3, Channel: 1}, {Tag: -2, Channel: 0}})
	if err != nil {
		t.Fatal(err)
	}
	path, err := encodeString("cap/run1.bin")
	if err != nil {
		t.Fatal(err)
	}
	msgs := []struct {
		typ     byte
		payload []byte
	}{
		{msgSubscribe, []byte{subFrames | subMetrics | subFlight | subHealth}},
		{msgPause, nil},
		{msgResume, nil},
		{msgRateOverride, encodeRateOverride(-1, 3)},
		{msgChannelPlan, plan},
		{msgCaptureStart, path},
		{msgCaptureStop, nil},
		{msgHello, []byte(`{"protocol":4,"epochs":2,"tags_active":8,"channels":2}`)},
		{msgFrame, encodeFrameEvent(nil, gateway.FrameEvent{
			Epoch: 7, Channel: 1, Tag: 42, RateK: 3, Seq: 99, Retransmit: true, Detected: true,
			Fresh: true, SymbolErrs: 2, OffsetSamples: -17, RSSDBm: -83.25,
		})},
		{msgEpoch, []byte(`{"epoch":1}`)},
		{msgSnapshot, []byte(`{"epochs":2}`)},
		{msgClientStats, []byte(`{"epoch":1,"frames_sent":5}`)},
		{msgError, []byte(`{"error":"rejected"}`)},
		{msgBye, nil},
		{msgObs, []byte(`[]`)},
		{msgFlight, pinnedDump()},
		{msgHealth, []byte(`{"epoch":1}`)},
	}
	buf := wire.AppendPrelude(nil)
	for _, m := range msgs {
		buf = chunk.Append(buf, m.typ, m.payload)
	}
	return buf
}

// TestEncodedBytesPinned pins the SHA-256 of the encoded bytes of a
// trace, a wire stream holding every message type, and a flight dump.
// Any change to the prelude, the chunk framing, the CRC or a binary
// payload codec shows up here; a format change must bump its version.
func TestEncodedBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"trace", pinnedTrace(t), "6f5a21653e3704d0f8ee73a0df3a6420705788a40da8b5ebd3a1fe2193cb0833"},
		{"wire", pinnedWire(t), "fccb48edb687e6730e76fee9778f5400bad7e6a76b11501c331c06a725786261"},
		{"flight", pinnedDump(), "0bb6fb1163803d6b20fef688b569dffc0d4e7e3ec7f42bb1f6d7c66964e4bba6"},
	}
	for _, c := range cases {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: %d bytes hash to %s, want %s", c.name, len(c.data), got, c.want)
		}
	}
}
