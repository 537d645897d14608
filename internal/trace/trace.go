// Package trace implements a persistent, versioned recording format for
// demodulation workloads: the configuration and link metadata of a run plus
// a stream of per-frame records (transmitted symbols, received signal
// strength, noise seed, the demodulator's decisions, and optionally the
// rendered frequency trajectory and envelope samples).
//
// A trace decouples signal generation from demodulation: any pipeline run
// can capture what it demodulated, ship the file elsewhere, and be
// re-demodulated later — bit-exactly, because the header carries the
// calibration seed and every record carries its noise-shard seed. Traces
// are the substrate for offline regression workloads (the golden trace
// under internal/pipeline/testdata) and the natural ingest point for future
// real-capture backends, which would populate the sample sections instead
// of the symbol ground truth.
//
// # Format (version 1)
//
// A trace is a chunk stream (see internal/chunk for the prelude, the
// framing and the CRC) with magic "SAIYTRC\x00", optionally wrapped in
// gzip: writers compress when the file name ends in ".gz"; readers sniff
// the gzip magic and decompress transparently. Chunk types:
//
//	1  header  — JSON-encoded Header; must be the first chunk
//	2  frame   — one binary Record (see encodeRecord)
//	3  trailer — u64 frame count; must be the last chunk
//
// Readers skip unknown chunk types whose CRC verifies, so minor additions
// stay backward compatible; the version number only changes when the chunk
// framing itself changes, and readers reject versions they do not know. A
// file that ends before its trailer is truncated: Next returns ErrTruncated
// after delivering every complete record, so a partial capture remains
// usable while the damage stays visible.
package trace

import (
	"encoding/binary"
	"math"

	"saiyan/internal/chunk"
	"saiyan/internal/core"
	"saiyan/internal/radio"
)

// Version is the trace format version this package reads and writes.
const Version = 1

// traceFormat frames trace streams. The payload limit (64 MiB) protects
// readers of corrupt or adversarial files from unbounded allocations.
var traceFormat = chunk.Format{Name: "trace", Magic: "SAIYTRC\x00", Version: Version, MaxPayload: 64 << 20}

// Chunk types.
const (
	chunkHeader  = 1
	chunkFrame   = 2
	chunkTrailer = 3
)

// Sentinel errors, shared with internal/chunk. Reader methods wrap these
// with positional detail; test with errors.Is.
var (
	// ErrCorrupt marks structural damage: bad magic, a CRC mismatch, an
	// impossible length field, or a malformed record.
	ErrCorrupt = chunk.ErrCorrupt
	// ErrTruncated marks a stream that ended before its trailer chunk;
	// records read before the cut remain valid.
	ErrTruncated = chunk.ErrTruncated
	// ErrVersion marks a format version this package does not understand.
	ErrVersion = chunk.ErrVersion
)

// Header is the trace-wide metadata, serialized as JSON in the first chunk.
// It carries everything needed to rebuild the demodulation pipeline that
// produced (or should replay) the recording.
type Header struct {
	// Demod is the full demodulator configuration of the recording run,
	// normalized (defaults filled in) so replay rebuilds an identical chain.
	Demod core.Config `json:"demod"`

	// Seed is the pipeline seed: calibration noise is drawn from it per
	// distance quantum, and per-frame noise from (Seed, Record.NoiseSeed).
	Seed uint64 `json:"seed"`

	// CalibrationQuantumDB is the per-distance threshold-table granularity
	// of the recording pipeline.
	CalibrationQuantumDB float64 `json:"calibration_quantum_db,omitempty"`

	// Link optionally records the link budget the traffic was generated
	// under — metadata for provenance, not needed for replay.
	Link *radio.LinkBudget `json:"link,omitempty"`

	// Description is free-form provenance ("field capture site B", ...).
	Description string `json:"description,omitempty"`

	// CreatedUnix optionally timestamps the capture (seconds since epoch).
	// Writers leave it zero unless told otherwise so regenerated traces
	// stay byte-identical.
	CreatedUnix int64 `json:"created_unix,omitempty"`
}

// Record is one demodulated frame. Payload carries the transmitted symbols
// (enough to re-render the frame for replay); Want carries the scoring
// ground truth when the recording run had one; Decoded/Detected carry the
// recording run's decisions so replays can be verified bit-exactly; Traj
// and Env optionally carry the rendered simulation-rate frequency
// trajectory and sampler-rate envelope.
type Record struct {
	Seq       uint64  // submission sequence number in the recording run
	Tag       int     // transmitting tag id
	RSSDBm    float64 // received signal strength
	NoiseSeed uint64  // per-frame RNG shard: dsp.NewRand(Header.Seed, NoiseSeed)

	Payload []uint16 // transmitted payload symbols
	Want    []uint16 // scoring ground truth (nil: none recorded)

	Detected   bool     // recording run found the preamble
	HasDecoded bool     // recording run captured its decisions
	Decoded    []uint16 // decoded symbols (empty when the preamble was missed)

	Traj []float64 // rendered frequency trajectory, simulation rate (optional)
	Env  []float64 // rendered envelope, sampler rate (optional)
}

// Record flag bits.
const (
	flagHasWant    = 1 << 0
	flagDetected   = 1 << 1
	flagHasDecoded = 1 << 2
)

// encodeRecord appends the binary form of r to dst:
//
//	seq(u64) tag(i32) rss(f64) noiseSeed(u64) flags(u8)
//	payload(u32 count + u16*)  want(u32 + u16*, only if flagHasWant)
//	decoded(u32 + u16*, only if flagHasDecoded)
//	traj(u32 + f64*)  env(u32 + f64*)
func encodeRecord(dst []byte, r *Record) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(r.Tag)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.RSSDBm))
	dst = binary.LittleEndian.AppendUint64(dst, r.NoiseSeed)
	var flags byte
	if r.Want != nil {
		flags |= flagHasWant
	}
	if r.Detected {
		flags |= flagDetected
	}
	if r.HasDecoded {
		flags |= flagHasDecoded
	}
	dst = append(dst, flags)
	dst = appendU16s(dst, r.Payload)
	if r.Want != nil {
		dst = appendU16s(dst, r.Want)
	}
	if r.HasDecoded {
		dst = appendU16s(dst, r.Decoded)
	}
	dst = appendF64s(dst, r.Traj)
	dst = appendF64s(dst, r.Env)
	return dst
}

func appendU16s(dst []byte, vals []uint16) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vals)))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint16(dst, v)
	}
	return dst
}

func appendF64s(dst []byte, vals []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vals)))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// u16s reads a u32 count and that many u16 values; an empty list is nil.
func u16s(d *chunk.Cursor) []uint16 {
	b := d.Bytes(2 * d.Count(2))
	if len(b) == 0 {
		return nil
	}
	vals := make([]uint16, len(b)/2)
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
	return vals
}

// f64s reads a u32 count and that many f64 values; an empty list is nil.
func f64s(d *chunk.Cursor) []float64 {
	b := d.Bytes(8 * d.Count(8))
	if len(b) == 0 {
		return nil
	}
	vals := make([]float64, len(b)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vals
}

// decodeRecord parses one frame-chunk payload.
func decodeRecord(buf []byte) (*Record, error) {
	d := chunk.NewCursor(buf)
	r := &Record{
		Seq:       d.U64(),
		Tag:       int(int32(d.U32())),
		RSSDBm:    math.Float64frombits(d.U64()),
		NoiseSeed: d.U64(),
	}
	flags := d.U8()
	r.Detected = flags&flagDetected != 0
	r.HasDecoded = flags&flagHasDecoded != 0
	r.Payload = u16s(d)
	if flags&flagHasWant != 0 {
		if r.Want = u16s(d); r.Want == nil {
			r.Want = []uint16{}
		}
	}
	if r.HasDecoded {
		if r.Decoded = u16s(d); r.Decoded == nil {
			r.Decoded = []uint16{}
		}
	}
	r.Traj = f64s(d)
	r.Env = f64s(d)
	if err := d.Done(); err != nil {
		return nil, err
	}
	return r, nil
}

// SymbolsToU16 converts decoded/payload symbol slices to the on-disk width.
// Symbols are downlink alphabet indices (< 2^K <= 2^12), so uint16 is wide
// enough for every valid LoRa configuration.
func SymbolsToU16(symbols []int) []uint16 {
	if symbols == nil {
		return nil
	}
	out := make([]uint16, len(symbols))
	for i, s := range symbols {
		out[i] = uint16(s)
	}
	return out
}

// SymbolsFromU16 converts on-disk symbols back to the in-memory form.
func SymbolsFromU16(symbols []uint16) []int {
	if symbols == nil {
		return nil
	}
	out := make([]int, len(symbols))
	for i, s := range symbols {
		out[i] = int(s)
	}
	return out
}
