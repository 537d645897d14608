// Package flight is the per-frame flight recorder: a deterministic
// tracing subsystem that gives every frame a trace ID derived purely
// from its schedule coordinates and lets the hot layers append
// fixed-size span records into per-worker ring buffers with zero
// allocation. On an anomaly trigger (decode failure, dedup miss,
// retransmission, channel hop, PRR collapse, or operator request) the
// recorder snapshots the rings into a "black box" dump carrying the
// full causal chain for the affected frames.
//
// The determinism bar matches gateway snapshots: a trace ID mixes only
// (epoch, channel, tag, seq) — no wall clock, no randomness — and a
// dump sorts its spans by content, so dumps are byte-identical at any
// worker count as long as the per-shard rings do not wrap within an
// epoch (BeginEpoch resets them; spanCap holds one epoch's spans).
//
// The write side follows the internal/obs discipline: a nil *Recorder
// no-ops every method, Append is allocation-free and safe on the
// decode hot path, and the read side (Recent, RecentJSON, QueryJSON)
// is reserved for the telemetry plane — saiyanvet's obsgate analyzer
// rejects flight reads from hot-layer packages just as it rejects
// metric reads.
package flight

import "strconv"

// Stage identifies which layer of the receive path appended a span.
type Stage uint8

const (
	// StageSegment is the stream segmenter: a preamble window matched
	// (or failed to match) a scheduled emission.
	StageSegment Stage = iota + 1
	// StageDecode is a pipeline worker running the demodulator on one
	// job, on either datapath.
	StageDecode
	// StageFold is the gateway folding decode results into per-tag
	// sessions: delivery, dedup, and loss bookkeeping.
	StageFold
	// StageControl is the gateway control loop: rate adaptation,
	// hopping, recalibration, and retransmission decisions.
	StageControl
	// StageFanout is the server publishing a frame event to
	// subscribers.
	StageFanout
)

// String names the stage for dumps and transcripts.
func (s Stage) String() string {
	switch s {
	case StageSegment:
		return "segment"
	case StageDecode:
		return "decode"
	case StageFold:
		return "fold"
	case StageControl:
		return "control"
	case StageFanout:
		return "fanout"
	}
	return "stage(" + strconv.Itoa(int(s)) + ")"
}

// Decision is the outcome a span records for its stage.
type Decision uint8

const (
	// WindowMatched: the segmenter matched a hunt window to a
	// scheduled emission (A = hunt RSS dBm, B = start sample).
	WindowMatched Decision = iota + 1
	// DecodeOK: the demodulator detected and decoded the frame
	// (A = symbol errors, B = fxp cycle count, 0 on the float path).
	DecodeOK
	// DecodeErr: the demodulator missed or failed the frame
	// (A = symbol errors or -1 when undetected, B = fxp cycle count).
	DecodeErr
	// Delivered: fold accepted the frame as a fresh delivery
	// (A = session SNR estimate, B = current rate K).
	Delivered
	// Duplicate: fold saw an already-delivered seq (dedup hit from a
	// retransmission; A = session SNR estimate, B = rate K).
	Duplicate
	// Missing: fold recorded the seq as lost this epoch
	// (A = session SNR estimate, B = rate K).
	Missing
	// RateHold: control kept the tag's rate (A = PRR mean, B = rate K).
	RateHold
	// RateChange: control moved the tag to a new rate
	// (A = old K, B = new K).
	RateChange
	// Hop: control hopped the tag to a new channel
	// (A = old channel, B = new channel).
	Hop
	// Recalibrate: control re-anchored calibration
	// (A = SNR estimate, B = previous anchor).
	Recalibrate
	// RetxScheduled: control scheduled a missing seq for
	// retransmission (A = seq, B = retry count so far).
	RetxScheduled
	// RetxAbandoned: control dropped a missing seq after exhausting
	// retries (A = seq, B = retry limit).
	RetxAbandoned
	// FrameSent: the server fanned a frame event out to at least one
	// subscriber (A = subscribers reached, B = subscribers dropped).
	FrameSent
	// FrameDropped: the server had to drop the frame event for every
	// subscriber (A = 0, B = subscribers dropped).
	FrameDropped
)

// String names the decision for dumps and transcripts.
func (d Decision) String() string {
	switch d {
	case WindowMatched:
		return "window-matched"
	case DecodeOK:
		return "decode-ok"
	case DecodeErr:
		return "decode-err"
	case Delivered:
		return "delivered"
	case Duplicate:
		return "duplicate"
	case Missing:
		return "missing"
	case RateHold:
		return "rate-hold"
	case RateChange:
		return "rate-change"
	case Hop:
		return "hop"
	case Recalibrate:
		return "recalibrate"
	case RetxScheduled:
		return "retx-scheduled"
	case RetxAbandoned:
		return "retx-abandoned"
	case FrameSent:
		return "frame-sent"
	case FrameDropped:
		return "frame-dropped"
	}
	return "decision(" + strconv.Itoa(int(d)) + ")"
}

// Kind classifies what anomaly triggered a dump.
type Kind uint8

const (
	// KindDecodeFailure: a scheduled frame was not delivered this
	// epoch.
	KindDecodeFailure Kind = iota + 1
	// KindDedupMiss: a duplicate seq arrived (a retransmission landed
	// after the original, or the dedup window slipped).
	KindDedupMiss
	// KindRetx: the control loop scheduled a retransmission.
	KindRetx
	// KindHop: the control loop fired a channel hop.
	KindHop
	// KindPRRCollapse: a session's PRR window collapsed below the hop
	// threshold.
	KindPRRCollapse
	// KindOperator: an operator requested a dump via the control
	// plane.
	KindOperator
)

// String names the trigger kind for dumps and transcripts.
func (k Kind) String() string {
	switch k {
	case KindDecodeFailure:
		return "decode-failure"
	case KindDedupMiss:
		return "dedup-miss"
	case KindRetx:
		return "retx"
	case KindHop:
		return "hop"
	case KindPRRCollapse:
		return "prr-collapse"
	case KindOperator:
		return "operator"
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// Span is one fixed-size flight record: a stage's decision about one
// frame, with two stage-specific scalars. Spans are plain values — no
// pointers, no interfaces — so appending one never allocates and a
// ring of them stays flat in memory.
type Span struct {
	Trace    uint64   // TraceID of the frame this span belongs to
	Seq      uint32   // frame sequence number (0 when unknown at the stage)
	Epoch    uint32   // gateway epoch (0 when unknown at the stage)
	Tag      uint16   // tag ID (0 when unknown at the stage)
	Channel  uint16   // ingest channel (0 when unknown at the stage)
	Stage    Stage    // which layer appended the span
	Decision Decision // what the layer decided
	A, B     float64  // stage-specific scalars (see Decision docs)
}

// TraceID derives a frame's trace ID purely from its schedule
// coordinates. It never returns 0 (the "no trace" sentinel) and is a
// bijective-enough mix (splitmix64 finalizer) that nearby frames get
// well-separated IDs for bucketed exemplars.
func TraceID(epoch, channel, tag int, seq uint64) uint64 {
	x := uint64(uint32(epoch))<<32 | uint64(uint16(channel))<<16 | uint64(uint16(tag))
	x ^= seq * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	return x
}

// FormatTrace renders a trace ID the way dumps, exemplars, and the
// /flight endpoint do: fixed-width hex.
func FormatTrace(trace uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[trace&0xf]
		trace >>= 4
	}
	return string(b[:])
}

// ParseTrace parses FormatTrace output (with or without a 0x prefix).
// The grammar is exactly what FormatTrace emits: 16 hex digits, no
// more, no fewer. Short, long, signed, or underscore-grouped forms are
// rejected rather than leniently widened — a truncated trace ID pasted
// from a log should fail loudly, not silently query the wrong frame.
func ParseTrace(s string) (uint64, bool) {
	if len(s) > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	if len(s) != 16 {
		return 0, false
	}
	var v uint64
	for i := 0; i < 16; i++ {
		var d uint64
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}
