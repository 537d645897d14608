package flight

import (
	"sort"
	"sync"
	"sync/atomic"

	"saiyan/internal/ring"
)

// Options sizes a Recorder. A zero Shards picks DefaultShards.
type Options struct {
	// Shards is the number of writer shards. Shard 0 belongs to the
	// control-plane goroutine (segmenter, fold, control, fanout);
	// shards 1..Shards-1 belong to pipeline workers, worker w writing
	// shard 1+w, so a gateway or pipeline with Workers workers needs at
	// least Workers+1 shards. Each shard has a single writer at a time
	// — the same contract the sharded histograms in internal/obs use.
	Shards int
}

// DefaultShards is the shard count of a zero Options.
const DefaultShards = 16

const (
	// spanCap is the span capacity of each shard's ring. Dumps are
	// byte-identical across worker counts only while rings do not wrap
	// within an epoch, so it holds one epoch's worth of spans.
	spanCap = 4096
	// dumpCap bounds the retained recent-dump ring.
	dumpCap = 64
	// maxSpans bounds the spans serialized into one dump (after the
	// deterministic sort, so truncation is deterministic too).
	maxSpans = 512
)

// ringShard is one single-writer span ring. head counts appends
// monotonically; the slot index is head % len(spans). The counter is
// atomic only so resets and reads from the trigger path are visible
// without a lock — appenders never contend on it. Unlike the recorder's
// other bounded histories it is not a ring.Ring: each shard is written
// from its own worker goroutine, so it needs the atomic head and the
// cache-line padding.
type ringShard struct {
	spans []Span
	head  atomic.Uint64
	// Pad shards apart so two writers never share a cache line.
	_ [40]byte
}

// Recorder is the flight recorder: sharded span rings on the write
// side, a bounded dump ring plus an optional hook on the trigger
// side. A nil *Recorder is valid and disables everything — the same
// nil-gating contract as internal/obs metrics.
type Recorder struct {
	shards []ringShard

	mu     sync.Mutex
	nextID uint64
	dumps  ring.Ring[Dump] // the dumpCap most recent dumps
	hook   func(Dump)
}

// New builds a Recorder.
func New(opts Options) *Recorder {
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	r := &Recorder{
		shards: make([]ringShard, opts.Shards),
		dumps:  ring.New[Dump](dumpCap),
	}
	for i := range r.shards {
		r.shards[i].spans = make([]Span, spanCap)
	}
	return r
}

// Append records one span into shard w's ring. It is allocation-free,
// never blocks, and is safe to call from a decode hot path; a nil
// recorder or an out-of-range shard no-ops. Each shard must have at
// most one concurrent writer (the pipeline hands each worker its own
// shard; the control-plane layers share shard 0 because they run on
// one goroutine).
//
//saiyan:hotpath
func (r *Recorder) Append(w int, s Span) {
	if r == nil || w < 0 || w >= len(r.shards) {
		return
	}
	sh := &r.shards[w]
	h := sh.head.Load()
	sh.spans[h%uint64(len(sh.spans))] = s
	sh.head.Store(h + 1)
}

// BeginEpoch resets every shard ring for a new epoch. The per-epoch
// reset is what keeps dumps deterministic: a ring that never wrapped
// since the last reset holds exactly this epoch's spans regardless of
// how jobs were spread across workers.
func (r *Recorder) BeginEpoch(_ int) {
	if r == nil {
		return
	}
	for i := range r.shards {
		r.shards[i].head.Store(0)
	}
}

// SetHook installs fn to run synchronously on every triggered dump
// (the server uses it to stream dumps to wire subscribers). Pass nil
// to uninstall.
func (r *Recorder) SetHook(fn func(Dump)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.hook = fn
	r.mu.Unlock()
}

// Trigger snapshots the rings into a black-box dump for the given
// anomaly: every span whose trace ID is in traces, sorted by content,
// truncated to maxSpans. The dump lands in the recent ring and is
// handed to the hook, if any. Callers must hold no recorder-visible
// locks and must guarantee the writer shards are quiescent or
// happens-before-ordered (the gateway triggers from fold/control,
// after the epoch's pipelines have drained). A nil recorder or an
// empty trace set no-ops.
func (r *Recorder) Trigger(kind Kind, epoch, channel, tag int, seq uint64, traces ...uint64) {
	if r == nil || len(traces) == 0 {
		return
	}
	spans := r.collect(traces)
	sortSpans(spans)
	if len(spans) > maxSpans {
		spans = spans[:maxSpans]
	}
	tr := append([]uint64(nil), traces...)
	sort.Slice(tr, func(i, j int) bool { return tr[i] < tr[j] })

	r.mu.Lock()
	r.nextID++
	d := Dump{
		ID:      r.nextID,
		Kind:    kind,
		Epoch:   epoch,
		Channel: channel,
		Tag:     tag,
		Seq:     seq,
		Traces:  tr,
		Spans:   spans,
	}
	r.dumps.Push(d)
	hook := r.hook
	r.mu.Unlock()
	if hook != nil {
		hook(d)
	}
}

// collect gathers every ring span whose trace is in the set. The scan
// walks each shard oldest-to-newest; order across shards is arbitrary
// and canonicalized by the caller's sort.
func (r *Recorder) collect(traces []uint64) []Span {
	var out []Span
	for i := range r.shards {
		sh := &r.shards[i]
		h := sh.head.Load()
		n := uint64(len(sh.spans))
		start := uint64(0)
		if h > n {
			start = h - n
		}
		for k := start; k < h; k++ {
			s := sh.spans[k%n]
			for _, t := range traces {
				if s.Trace == t {
					out = append(out, s)
					break
				}
			}
		}
	}
	return out
}

// sortSpans orders spans by pure content so the result is independent
// of which worker (shard) recorded each span. Stage ordering follows
// the receive path, so a sorted chain reads segment → decode → fold →
// control → fanout per trace.
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Decision != b.Decision {
			return a.Decision < b.Decision
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
}

// Recent returns up to n of the most recent dumps, oldest first. The
// returned dumps share span slices with the recorder's ring; treat
// them as read-only. Telemetry-plane only — saiyanvet rejects calls
// from hot-layer packages.
func (r *Recorder) Recent(n int) []Dump {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	have := r.dumps.Len()
	if have == 0 {
		return nil
	}
	n = min(n, have)
	out := make([]Dump, n)
	for i := range out {
		out[i] = r.dumps.At(have - n + i)
	}
	return out
}

// Find returns the retained dumps whose trace set contains trace,
// oldest first. Telemetry-plane only.
func (r *Recorder) Find(trace uint64) []Dump {
	if r == nil {
		return nil
	}
	all := r.Recent(dumpCap)
	var out []Dump
	for _, d := range all {
		for _, t := range d.Traces {
			if t == trace {
				out = append(out, d)
				break
			}
		}
	}
	return out
}
