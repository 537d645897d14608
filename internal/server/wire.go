// Package server exposes a running gateway over TCP: a versioned,
// length-prefixed binary protocol that streams per-frame decode events and
// per-epoch metrics to any number of concurrent subscribers, and carries an
// operator control plane (pause/resume, rate override, channel-plan swap,
// frame-capture start/stop) on the same wire.
//
// # Protocol (version 4)
//
// Version 2 is version 1 plus the 0x17 obs message: a per-epoch metrics
// dump from the server's observability registry (internal/obs), sent to
// metrics subscribers of servers running with observability enabled.
// Version 3 adds the flight subscription bit (4) and the 0x18 flight
// message: a black-box anomaly dump from the gateway's flight recorder
// (internal/flight), streamed to flight subscribers of servers running
// with a recorder attached.
// Version 4 adds the health subscription bit (8) and the 0x19 health
// message: the link-health plane's per-epoch delta (internal/health) —
// the raw points appended that epoch plus any SLO alert transitions —
// streamed to health subscribers of servers running with a health store
// attached.
//
// Both directions are a chunk stream (see internal/chunk for the prelude,
// the framing and the CRC) with magic "SAIYWIR\x00"; each chunk is one
// message and its type byte is the message type. Client-to-server message
// types:
//
//	0x01 subscribe    — u8 bitmask: 1 = frame events, 2 = epoch metrics,
//	                    4 = flight anomaly dumps, 8 = health deltas
//	0x02 pause        — empty; epoch loop idles until resume
//	0x03 resume       — empty
//	0x04 rateOverride — tag(i32, <0 = all) k(u8): force downlink rate
//	0x05 channelPlan  — count(u16) then count * (tag(i32) channel(u8));
//	                    count 0 = rebalance every tag round-robin
//	0x06 captureStart — path(u16 length + bytes): record frame events
//	                    server-side to a capture file. The path is resolved
//	                    inside the server's configured capture directory
//	                    (Config.CaptureDir) and may not escape it; servers
//	                    without one reject the request
//	0x07 captureStop  — empty
//
// Server-to-client message types:
//
//	0x10 hello        — JSON Hello; first message after the prelude
//	0x11 frame        — one binary frame event (see encodeFrameEvent)
//	0x12 epoch        — JSON gateway.EpochReport, once per served epoch
//	0x13 snapshot     — JSON gateway.Snapshot, once per served epoch
//	0x14 clientStats  — JSON ClientStats: this client's delivery/drop counters
//	0x15 error        — JSON {"error": ...}: a rejected control request, or
//	                    — as the stream's final message in place of a bye —
//	                    the failure a stopping server is returning
//	0x16 bye          — empty; the server is shutting down cleanly
//	0x17 obs          — JSON []obs.MetricSnapshot: the server's
//	                    observability registry dump, once per served epoch;
//	                    only sent by servers with Config.Metrics set
//	0x18 flight       — one binary flight.Dump (flight's own chunk-framed
//	                    encoding, see flight.EncodeDump), sent to flight
//	                    subscribers whenever an anomaly triggers a
//	                    black-box dump; only sent by servers with
//	                    Config.Flight set
//	0x19 health       — JSON health.Delta: the link-health plane's sealed
//	                    epoch — raw series points plus SLO alert
//	                    transitions — once per served epoch; only sent by
//	                    servers with Config.Health set
//
// Control messages are fire-and-forget: they are queued and applied by the
// epoch loop at the next epoch boundary, so they serialize with serving and
// determinism is preserved — the same control sequence at the same epoch
// boundaries yields byte-identical snapshots at any worker count. A
// rejected request comes back asynchronously as an error message.
//
// Subscribers are never allowed to stall the epoch loop: every client has
// bounded send queues and a fanout that would block instead drops the
// message and counts the drop (reported in the client's clientStats).
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"saiyan/internal/chunk"
	"saiyan/internal/gateway"
)

// Version is the wire protocol version this package speaks.
const Version = 4

// wire frames every protocol stream and every capture file. Protocol
// messages are small — the largest is a Snapshot of a big deployment — so
// a payload beyond 16 MiB is corruption, not load.
var wire = chunk.Format{Name: "server", Magic: "SAIYWIR\x00", Version: Version, MaxPayload: 16 << 20}

// Message types, client to server.
const (
	msgSubscribe    = 0x01
	msgPause        = 0x02
	msgResume       = 0x03
	msgRateOverride = 0x04
	msgChannelPlan  = 0x05
	msgCaptureStart = 0x06
	msgCaptureStop  = 0x07
)

// Message types, server to client.
const (
	msgHello       = 0x10
	msgFrame       = 0x11
	msgEpoch       = 0x12
	msgSnapshot    = 0x13
	msgClientStats = 0x14
	msgError       = 0x15
	msgBye         = 0x16
	msgObs         = 0x17
	msgFlight      = 0x18
	msgHealth      = 0x19
)

// Subscription bits carried by msgSubscribe.
const (
	subFrames  = 1 << 0
	subMetrics = 1 << 1
	subFlight  = 1 << 2
	subHealth  = 1 << 3
)

// Sentinel errors; test with errors.Is. The first three are shared with
// internal/chunk.
var (
	// ErrCorrupt marks structural damage on the wire: bad magic, a CRC
	// mismatch, an impossible length, or a malformed payload.
	ErrCorrupt = chunk.ErrCorrupt
	// ErrTruncated marks a stream that ended mid-message.
	ErrTruncated = chunk.ErrTruncated
	// ErrUnknownType marks a message type outside the protocol.
	ErrUnknownType = errors.New("server: unknown message type")
)

// writeMsg frames and writes one message.
func writeMsg(w io.Writer, typ byte, payload []byte) error {
	_, err := w.Write(chunk.Append(nil, typ, payload))
	return err
}

// Frame-event flag bits.
const (
	evRetransmit = 1 << 0
	evDetected   = 1 << 1
	evCorrect    = 1 << 2
	evFresh      = 1 << 3
)

// frameEventBytes is the fixed size of an encoded frame event.
const frameEventBytes = 4 + 1 + 4 + 1 + 8 + 1 + 4 + 8 + 8

// encodeFrameEvent appends the binary form of ev to dst:
//
//	epoch(u32) channel(u8) tag(u32) rateK(u8) seq(u64) flags(u8)
//	symbolErrs(i32) offsetSamples(i64) rssDBm(f64)
//
// Frame events are the protocol's high-rate stream, so they go binary
// (fixed 39 bytes) rather than JSON like the per-epoch metrics.
func encodeFrameEvent(dst []byte, ev gateway.FrameEvent) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(ev.Epoch)))
	dst = append(dst, byte(ev.Channel))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(ev.Tag)))
	dst = append(dst, byte(ev.RateK))
	dst = binary.LittleEndian.AppendUint64(dst, ev.Seq)
	var flags byte
	if ev.Retransmit {
		flags |= evRetransmit
	}
	if ev.Detected {
		flags |= evDetected
	}
	if ev.Correct {
		flags |= evCorrect
	}
	if ev.Fresh {
		flags |= evFresh
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(ev.SymbolErrs)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ev.OffsetSamples))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ev.RSSDBm))
	return dst
}

// decodeFrameEvent parses one frame-message payload.
func decodeFrameEvent(buf []byte) (gateway.FrameEvent, error) {
	d := chunk.NewCursor(buf)
	ev := gateway.FrameEvent{
		Epoch:   int(int32(d.U32())),
		Channel: int(d.U8()),
		Tag:     int(int32(d.U32())),
		RateK:   int(d.U8()),
		Seq:     d.U64(),
	}
	flags := d.U8()
	ev.Retransmit = flags&evRetransmit != 0
	ev.Detected = flags&evDetected != 0
	ev.Correct = flags&evCorrect != 0
	ev.Fresh = flags&evFresh != 0
	ev.SymbolErrs = int(int32(d.U32()))
	ev.OffsetSamples = int64(d.U64())
	ev.RSSDBm = math.Float64frombits(d.U64())
	if err := d.Done(); err != nil {
		return gateway.FrameEvent{}, err
	}
	return ev, nil
}

// TagMove is one entry of a channel-plan swap: assign Tag to Channel.
type TagMove struct {
	Tag     int `json:"tag"`
	Channel int `json:"channel"`
}

// encodeRateOverride builds a rateOverride payload.
func encodeRateOverride(tag, k int) []byte {
	dst := binary.LittleEndian.AppendUint32(nil, uint32(int32(tag)))
	return append(dst, byte(k))
}

func decodeRateOverride(buf []byte) (tag, k int, err error) {
	d := chunk.NewCursor(buf)
	tag = int(int32(d.U32()))
	k = int(d.U8())
	if err := d.Done(); err != nil {
		return 0, 0, err
	}
	return tag, k, nil
}

// encodeChannelPlan builds a channelPlan payload. An empty plan means
// "rebalance every tag round-robin".
func encodeChannelPlan(moves []TagMove) ([]byte, error) {
	if len(moves) > math.MaxUint16 {
		return nil, fmt.Errorf("server: channel plan of %d moves exceeds %d", len(moves), math.MaxUint16)
	}
	dst := binary.LittleEndian.AppendUint16(nil, uint16(len(moves)))
	for _, m := range moves {
		if m.Channel < 0 || m.Channel > 255 {
			return nil, fmt.Errorf("server: channel %d outside the command argument space [0, 255]", m.Channel)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(m.Tag)))
		dst = append(dst, byte(m.Channel))
	}
	return dst, nil
}

func decodeChannelPlan(buf []byte) ([]TagMove, error) {
	d := chunk.NewCursor(buf)
	n := int(d.U16())
	entries := chunk.NewCursor(d.Bytes(5 * n))
	if err := d.Done(); err != nil {
		return nil, err
	}
	moves := make([]TagMove, n)
	for i := range moves {
		moves[i] = TagMove{Tag: int(int32(entries.U32())), Channel: int(entries.U8())}
	}
	return moves, nil
}

// encodeString builds a length-prefixed string payload (captureStart path).
func encodeString(s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("server: string of %d bytes exceeds %d", len(s), math.MaxUint16)
	}
	dst := binary.LittleEndian.AppendUint16(nil, uint16(len(s)))
	return append(dst, s...), nil
}

func decodeString(buf []byte) (string, error) {
	d := chunk.NewCursor(buf)
	n := int(d.U16())
	b := d.Bytes(n)
	if err := d.Done(); err != nil {
		return "", err
	}
	return string(b), nil
}
