package server

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"saiyan/internal/chunk"
	"saiyan/internal/gateway"
)

func TestPreludeVersion(t *testing.T) {
	buf := wire.AppendPrelude(nil)
	if err := wire.ReadPrelude(bytes.NewReader(buf)); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	// Wrong version.
	mut := append([]byte(nil), buf...)
	mut[len(mut)-4] ^= 0xFF
	if err := wire.ReadPrelude(bytes.NewReader(mut)); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: %v, want ErrVersion", err)
	}
	// Wrong magic.
	mut = append([]byte(nil), buf...)
	mut[0] ^= 0xFF
	if err := wire.ReadPrelude(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v, want ErrCorrupt", err)
	}
	// Short prelude.
	if err := wire.ReadPrelude(bytes.NewReader(mut[:5])); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short prelude: %v, want ErrTruncated", err)
	}
}

func TestFrameEventRoundTrip(t *testing.T) {
	events := []gateway.FrameEvent{
		{},
		{
			Epoch: 7, Channel: 1, Tag: 42, RateK: 3, Seq: 99,
			Retransmit: true, Detected: true, Correct: true, Fresh: true,
			SymbolErrs: 2, OffsetSamples: -17, RSSDBm: -83.25,
		},
		{Epoch: -1, Tag: -5, SymbolErrs: -1, OffsetSamples: 1 << 40, RSSDBm: 0},
	}
	for _, ev := range events {
		enc := encodeFrameEvent(nil, ev)
		if len(enc) != frameEventBytes {
			t.Fatalf("encoded %d bytes, want %d", len(enc), frameEventBytes)
		}
		back, err := decodeFrameEvent(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if back != ev {
			t.Fatalf("round trip:\n in  %+v\n out %+v", ev, back)
		}
	}
	// Short and long payloads are ErrCorrupt.
	enc := encodeFrameEvent(nil, events[1])
	if _, err := decodeFrameEvent(enc[:len(enc)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short frame event: %v, want ErrCorrupt", err)
	}
	if _, err := decodeFrameEvent(append(enc, 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("long frame event: %v, want ErrCorrupt", err)
	}
}

func TestControlPayloadRoundTrip(t *testing.T) {
	tag, k, err := decodeRateOverride(encodeRateOverride(-1, 3))
	if err != nil || tag != -1 || k != 3 {
		t.Fatalf("rate override: tag=%d k=%d err=%v", tag, k, err)
	}

	plan := []TagMove{{Tag: 3, Channel: 1}, {Tag: 9, Channel: 0}}
	payload, err := encodeChannelPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeChannelPlan(payload)
	if err != nil || len(back) != 2 || back[0] != plan[0] || back[1] != plan[1] {
		t.Fatalf("channel plan: %+v err=%v", back, err)
	}
	empty, err := encodeChannelPlan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := decodeChannelPlan(empty); err != nil || len(back) != 0 {
		t.Fatalf("empty plan: %+v err=%v", back, err)
	}
	if _, err := encodeChannelPlan([]TagMove{{Tag: 1, Channel: 300}}); err == nil {
		t.Fatal("channel 300 must be rejected")
	}

	path, err := decodeString(mustEncodeString(t, "/tmp/capture.bin"))
	if err != nil || path != "/tmp/capture.bin" {
		t.Fatalf("string: %q err=%v", path, err)
	}
}

func mustEncodeString(t *testing.T, s string) []byte {
	t.Helper()
	b, err := encodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeAny routes a payload through the matching typed decoder, the way
// the server's read loop and the client's Next do.
func decodeAny(typ byte, payload []byte) error {
	switch typ {
	case msgSubscribe:
		d := chunk.NewCursor(payload)
		d.U8()
		return d.Done()
	case msgPause, msgResume, msgCaptureStop, msgBye:
		return nil
	case msgRateOverride:
		_, _, err := decodeRateOverride(payload)
		return err
	case msgChannelPlan:
		_, err := decodeChannelPlan(payload)
		return err
	case msgCaptureStart:
		_, err := decodeString(payload)
		return err
	case msgFrame:
		_, err := decodeFrameEvent(payload)
		return err
	case msgHello, msgEpoch, msgSnapshot, msgClientStats, msgError:
		return nil // JSON payloads: framing already CRC-verified
	default:
		return ErrUnknownType
	}
}

// FuzzWireFrame drives the full wire decode path — prelude, message
// framing, typed payload decoders — over arbitrary bytes. Truncations, bit
// flips, and unknown message types must come back as the package's typed
// errors; nothing may panic.
func FuzzWireFrame(f *testing.F) {
	var seed bytes.Buffer
	seed.Write(wire.AppendPrelude(nil))
	writeMsg(&seed, msgSubscribe, []byte{subFrames | subMetrics})
	writeMsg(&seed, msgRateOverride, encodeRateOverride(2, 3))
	plan, _ := encodeChannelPlan([]TagMove{{Tag: 1, Channel: 1}})
	writeMsg(&seed, msgChannelPlan, plan)
	path, _ := encodeString("cap.bin")
	writeMsg(&seed, msgCaptureStart, path)
	writeMsg(&seed, msgFrame, encodeFrameEvent(nil, gateway.FrameEvent{Epoch: 1, Tag: 3, Seq: 9, SymbolErrs: -1}))
	writeMsg(&seed, msgBye, nil)
	full := seed.Bytes()
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add([]byte(wire.Magic))
	mut := append([]byte(nil), full...)
	mut[20] ^= 0x10
	f.Add(mut)
	f.Add([]byte{0xFF, 0, 0, 0, 0})

	allowed := func(err error) bool {
		return err == nil || errors.Is(err, io.EOF) || errors.Is(err, ErrCorrupt) ||
			errors.Is(err, ErrTruncated) || errors.Is(err, ErrVersion) || errors.Is(err, ErrUnknownType)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		if err := wire.ReadPrelude(r); err != nil {
			if !allowed(err) {
				t.Fatalf("prelude: unexpected error type: %v", err)
			}
			return
		}
		for {
			typ, payload, err := wire.Read(r)
			if err != nil {
				if !allowed(err) {
					t.Fatalf("wire.Read: unexpected error type: %v", err)
				}
				return
			}
			if err := decodeAny(typ, payload); !allowed(err) {
				t.Fatalf("decode 0x%02x: unexpected error type: %v", typ, err)
			}
		}
	})
}
