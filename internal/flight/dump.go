package flight

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"saiyan/internal/chunk"
)

// Dump is one black-box snapshot: the anomaly that triggered it plus
// the full causal span chain for the affected frames, sorted by
// content so the bytes are identical at any worker count.
type Dump struct {
	ID      uint64   // sequential dump id (1-based, trigger order)
	Kind    Kind     // what anomaly triggered the dump
	Epoch   int      // gateway epoch of the trigger
	Channel int      // ingest channel of the affected frame(s)
	Tag     int      // tag of the affected frame(s)
	Seq     uint64   // frame seq of the trigger (0 for tag-level triggers)
	Traces  []uint64 // sorted trace IDs the dump covers
	Spans   []Span   // content-sorted causal chain
}

// An encoded dump is a chunk stream (see internal/chunk for the prelude,
// the framing and the CRC) with magic "SAIYFLT\x00". Chunk types: 1
// header (JSON dumpHeader, first), 2 span (one fixed-size binary span),
// 3 trailer (u64 span count, last). Dumps are small and the header is the
// only variable-size chunk, so decoding caps a payload at 1 MiB.
var dumpFormat = chunk.Format{Name: "flight", Magic: "SAIYFLT\x00", Version: 1, MaxPayload: 1 << 20}

const (
	chunkHeader  = 1
	chunkSpan    = 2
	chunkTrailer = 3

	// spanWire is the encoded size of one span record.
	spanWire = 8 + 4 + 4 + 2 + 2 + 1 + 1 + 8 + 8
)

// Sentinel errors, shared with internal/chunk; test with errors.Is.
var (
	// ErrCorrupt marks structural damage in an encoded dump.
	ErrCorrupt = chunk.ErrCorrupt
)

// dumpHeader is the JSON metadata chunk of an encoded dump.
type dumpHeader struct {
	ID      uint64   `json:"id"`
	Kind    Kind     `json:"kind"`
	Epoch   int      `json:"epoch"`
	Channel int      `json:"channel"`
	Tag     int      `json:"tag"`
	Seq     uint64   `json:"seq,omitempty"`
	Traces  []string `json:"traces"`
}

// EncodeDump serializes d into the chunked binary form, appending to
// dst. Encoding the same dump always yields the same bytes: every
// field is schedule-derived and the span order is canonical.
func EncodeDump(dst []byte, d Dump) []byte {
	traces := make([]string, len(d.Traces))
	for i, t := range d.Traces {
		traces[i] = FormatTrace(t)
	}
	hdr, err := json.Marshal(dumpHeader{
		ID: d.ID, Kind: d.Kind, Epoch: d.Epoch, Channel: d.Channel,
		Tag: d.Tag, Seq: d.Seq, Traces: traces,
	})
	if err != nil {
		// dumpHeader has no unmarshalable fields; keep the API
		// infallible like trace record encoding.
		panic("flight: header marshal: " + err.Error())
	}
	dst = dumpFormat.AppendPrelude(dst)
	dst = chunk.Append(dst, chunkHeader, hdr)
	var buf [spanWire]byte
	for _, s := range d.Spans {
		encodeSpan(buf[:0], s)
		dst = chunk.Append(dst, chunkSpan, buf[:spanWire])
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], uint64(len(d.Spans)))
	return chunk.Append(dst, chunkTrailer, trailer[:])
}

// encodeSpan writes the fixed-size binary form of s into dst[:spanWire].
//
//	trace(u64) seq(u32) epoch(u32) tag(u16) channel(u16)
//	stage(u8) decision(u8) a(f64) b(f64)
func encodeSpan(dst []byte, s Span) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, s.Trace)
	dst = binary.LittleEndian.AppendUint32(dst, s.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, s.Epoch)
	dst = binary.LittleEndian.AppendUint16(dst, s.Tag)
	dst = binary.LittleEndian.AppendUint16(dst, s.Channel)
	dst = append(dst, byte(s.Stage), byte(s.Decision))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.A))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.B))
	return dst
}

// decodeSpan parses one span-chunk payload.
func decodeSpan(buf []byte) (Span, error) {
	if len(buf) != spanWire {
		return Span{}, fmt.Errorf("%w: span chunk is %d bytes, want %d", ErrCorrupt, len(buf), spanWire)
	}
	var s Span
	s.Trace = binary.LittleEndian.Uint64(buf[0:])
	s.Seq = binary.LittleEndian.Uint32(buf[8:])
	s.Epoch = binary.LittleEndian.Uint32(buf[12:])
	s.Tag = binary.LittleEndian.Uint16(buf[16:])
	s.Channel = binary.LittleEndian.Uint16(buf[18:])
	s.Stage = Stage(buf[20])
	s.Decision = Decision(buf[21])
	s.A = math.Float64frombits(binary.LittleEndian.Uint64(buf[22:]))
	s.B = math.Float64frombits(binary.LittleEndian.Uint64(buf[30:]))
	return s, nil
}

// DecodeDump parses an EncodeDump stream back into a Dump. Unknown
// chunk types with a valid CRC are skipped, so minor format additions
// stay backward compatible.
func DecodeDump(buf []byte) (Dump, error) {
	var d Dump
	if err := dumpFormat.CheckPrelude(buf); err != nil {
		return d, cutIsCorrupt(err)
	}
	rest := buf[chunk.PreludeBytes:]
	sawHeader, sawTrailer := false, false
	var count uint64
	for len(rest) > 0 {
		if sawTrailer {
			return d, fmt.Errorf("%w: %d stray bytes after trailer", ErrCorrupt, len(rest))
		}
		typ, payload, next, err := dumpFormat.Cut(rest)
		if err != nil {
			return d, cutIsCorrupt(err)
		}
		rest = next
		switch typ {
		case chunkHeader:
			if sawHeader {
				return d, fmt.Errorf("%w: duplicate header chunk", ErrCorrupt)
			}
			var h dumpHeader
			if err := json.Unmarshal(payload, &h); err != nil {
				return d, fmt.Errorf("%w: malformed header: %v", ErrCorrupt, err)
			}
			d.ID, d.Kind = h.ID, h.Kind
			d.Epoch, d.Channel, d.Tag, d.Seq = h.Epoch, h.Channel, h.Tag, h.Seq
			d.Traces = make([]uint64, 0, len(h.Traces))
			for _, ts := range h.Traces {
				t, ok := ParseTrace(ts)
				if !ok {
					return d, fmt.Errorf("%w: malformed trace id %q", ErrCorrupt, ts)
				}
				d.Traces = append(d.Traces, t)
			}
			sawHeader = true
		case chunkSpan:
			if !sawHeader {
				return d, fmt.Errorf("%w: span before header", ErrCorrupt)
			}
			s, err := decodeSpan(payload)
			if err != nil {
				return d, err
			}
			d.Spans = append(d.Spans, s)
		case chunkTrailer:
			if len(payload) != 8 {
				return d, fmt.Errorf("%w: trailer is %d bytes, want 8", ErrCorrupt, len(payload))
			}
			count = binary.LittleEndian.Uint64(payload)
			sawTrailer = true
		default:
			// Skip unknown-but-intact chunks.
		}
	}
	if !sawHeader || !sawTrailer {
		return d, fmt.Errorf("%w: missing header or trailer", ErrCorrupt)
	}
	if count != uint64(len(d.Spans)) {
		return d, fmt.Errorf("%w: trailer count %d != %d spans", ErrCorrupt, count, len(d.Spans))
	}
	return d, nil
}

// cutIsCorrupt reports a dump cut short as ErrCorrupt: unlike a trace or
// a wire stream, a dump has no partial form worth keeping.
func cutIsCorrupt(err error) error {
	if errors.Is(err, chunk.ErrTruncated) {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return err
}

// spanJSON is the rendered form of one span for /flight and watch.
type spanJSON struct {
	Trace    string  `json:"trace"`
	Stage    string  `json:"stage"`
	Decision string  `json:"decision"`
	Epoch    uint32  `json:"epoch,omitempty"`
	Seq      uint32  `json:"seq,omitempty"`
	Tag      uint16  `json:"tag,omitempty"`
	Channel  uint16  `json:"channel,omitempty"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
}

// dumpJSON is the rendered form of one dump.
type dumpJSON struct {
	ID      uint64     `json:"id"`
	Kind    string     `json:"kind"`
	Epoch   int        `json:"epoch"`
	Channel int        `json:"channel"`
	Tag     int        `json:"tag"`
	Seq     uint64     `json:"seq,omitempty"`
	Traces  []string   `json:"traces"`
	Spans   []spanJSON `json:"spans"`
}

// jsonSafe clamps the NaN/Inf values JSON cannot carry.
func jsonSafe(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	if math.IsInf(v, -1) {
		return -math.MaxFloat64
	}
	return v
}

func renderDump(d Dump) dumpJSON {
	out := dumpJSON{
		ID: d.ID, Kind: d.Kind.String(), Epoch: d.Epoch,
		Channel: d.Channel, Tag: d.Tag, Seq: d.Seq,
		Traces: make([]string, len(d.Traces)),
		Spans:  make([]spanJSON, len(d.Spans)),
	}
	for i, t := range d.Traces {
		out.Traces[i] = FormatTrace(t)
	}
	for i, s := range d.Spans {
		out.Spans[i] = spanJSON{
			Trace: FormatTrace(s.Trace), Stage: s.Stage.String(),
			Decision: s.Decision.String(), Epoch: s.Epoch, Seq: s.Seq,
			Tag: s.Tag, Channel: s.Channel,
			A: jsonSafe(s.A), B: jsonSafe(s.B),
		}
	}
	return out
}

// RecentJSON renders the last n dumps as a JSON array, oldest first.
// Telemetry-plane only.
func (r *Recorder) RecentJSON(n int) []byte {
	return dumpsJSON(r.Recent(n))
}

// QueryJSON renders every retained dump covering the given hex trace
// ID as a JSON array; an unparsable trace yields an empty array.
// Telemetry-plane only.
func (r *Recorder) QueryJSON(trace string) []byte {
	t, ok := ParseTrace(trace)
	if !ok {
		return []byte("[]")
	}
	return dumpsJSON(r.Find(t))
}

func dumpsJSON(dumps []Dump) []byte {
	rendered := make([]dumpJSON, len(dumps))
	for i, d := range dumps {
		rendered[i] = renderDump(d)
	}
	b, err := json.Marshal(rendered)
	if err != nil {
		panic("flight: dumps marshal: " + err.Error())
	}
	return b
}
