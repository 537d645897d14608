// Package obs is the gateway stack's observability layer: an atomic
// metrics registry (counters, gauges, and fixed log-bucket histograms with
// lock-free per-worker shards merged on read) plus the exposition
// machinery that serves it — Prometheus text format for the HTTP
// telemetry plane and a JSON snapshot for the wire protocol's metrics
// dump. Its one project dependency is internal/flight's trace-ID grammar
// (FormatTrace for exemplars, ParseTrace for ?trace= queries).
//
// The design constraints come from the project's determinism bar:
//
//   - Instrumentation is write-only. Nothing in this package is ever read
//     back into a control decision, so gateway snapshots stay
//     byte-identical at any worker count with observability on or off.
//   - Every handle is nil-safe: methods on a nil *Counter, *Gauge, or
//     *Histogram no-op, so call sites instrument unconditionally and a
//     disabled registry costs one nil check per event.
//   - The hot path is zero-alloc: Add/Set/Observe touch only atomics and
//     a binary search over precomputed bucket bounds. Per-worker histogram
//     shards keep concurrent Observe calls off each other's cache lines;
//     shards are merged only on read (exposition, snapshot).
//
// Registration is get-or-create and idempotent: asking for an existing
// name returns the existing handle, so layers that rebuild their plumbing
// per epoch (the gateway constructs a fresh pipeline per rate group every
// epoch) accumulate into the same series instead of colliding.
//
// Metric names follow Prometheus conventions (snake_case, _total for
// counters, _seconds for durations). A name may carry a fixed label set
// inline — Counter(`saiyan_gateway_cmds_total{op="set_rate"}`, ...) —
// and exposition emits the HELP/TYPE header once per base name.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"saiyan/internal/flight"
)

// Counter is a monotonically increasing uint64. The zero value is ready;
// a nil *Counter no-ops.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can move both ways. The zero value is ready; a
// nil *Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the current value
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax raises the gauge to v if v exceeds the current value — a
// lock-free high-water mark.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// HistogramOpts shapes a histogram's fixed log-spaced bucket grid and its
// shard count. The zero value is usable.
type HistogramOpts struct {
	// Min is the upper bound of the first bucket. Default 1e-6 (1 µs when
	// observing seconds).
	Min float64
	// Growth is the bound-to-bound multiplier. Default 2.
	Growth float64
	// Buckets is the number of finite buckets; observations beyond the
	// last bound land in the implicit +Inf bucket. Default 24.
	Buckets int
	// Shards is the number of independent write shards. Size it to the
	// worker count so concurrent ObserveShardTrace calls never contend; 1 (the
	// default) is right for single-goroutine writers.
	Shards int
}

func (o HistogramOpts) withDefaults() HistogramOpts {
	if o.Min <= 0 {
		o.Min = 1e-6
	}
	if o.Growth <= 1 {
		o.Growth = 2
	}
	if o.Buckets < 1 {
		o.Buckets = 24
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	return o
}

// histShard is one writer's private slice of a histogram. The padding
// keeps adjacent shards' hot fields (sum, count) off one cache line.
type histShard struct {
	counts []atomic.Uint64 // len(bounds)+1; the last slot is the +Inf bucket
	sum    atomic.Uint64   // math.Float64bits, CAS-accumulated
	count  atomic.Uint64
	_      [48]byte
}

// Histogram is a fixed log-bucket distribution with lock-free per-shard
// writes merged on read. A nil *Histogram no-ops.
type Histogram struct {
	bounds []float64 // ascending finite upper bounds
	shards []histShard
	// exemplars holds the last flight trace ID observed into each bucket
	// (len(bounds)+1; 0 = none yet). Last-write-wins across shards: an
	// exemplar is a breadcrumb from a bucket to one concrete frame's
	// flight trace, not an aggregate, so a plain atomic store suffices
	// and the hot path stays zero-alloc.
	exemplars []atomic.Uint64
}

// NewHistogram builds a standalone (unregistered) histogram; most callers
// use Registry.Histogram instead.
func NewHistogram(opts HistogramOpts) *Histogram {
	opts = opts.withDefaults()
	h := &Histogram{
		bounds:    make([]float64, opts.Buckets),
		shards:    make([]histShard, opts.Shards),
		exemplars: make([]atomic.Uint64, opts.Buckets+1),
	}
	b := opts.Min
	for i := range h.bounds {
		h.bounds[i] = b
		b *= opts.Growth
	}
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Uint64, opts.Buckets+1)
	}
	return h
}

// ObserveShardTrace records v on the given write shard and, when trace is
// non-zero, stamps the landing bucket's exemplar with that flight trace
// ID, so an operator can jump from a bucket to one concrete frame's
// decision chain. Zero-alloc.
//
//saiyan:hotpath
func (h *Histogram) ObserveShardTrace(shard int, v float64, trace uint64) {
	if h == nil {
		return
	}
	if shard < 0 {
		shard = 0
	}
	s := &h.shards[shard%len(h.shards)]
	// First bound >= v is exactly Prometheus le semantics.
	bucket := sort.SearchFloat64s(h.bounds, v)
	s.counts[bucket].Add(1)
	s.count.Add(1)
	if trace != 0 {
		h.exemplars[bucket].Store(trace)
	}
	for {
		old := s.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if s.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start on the given shard.
func (h *Histogram) ObserveSince(shard int, start time.Time) {
	h.ObserveSinceTrace(shard, start, 0)
}

// ObserveSinceTrace is ObserveSince with a bucket exemplar, like
// ObserveShardTrace.
func (h *Histogram) ObserveSinceTrace(shard int, start time.Time, trace uint64) {
	if h == nil {
		return
	}
	h.ObserveShardTrace(shard, time.Since(start).Seconds(), trace)
}

// merge folds every shard into one (counts, count, sum) view.
func (h *Histogram) merge() (counts []uint64, count uint64, sum float64) {
	counts = make([]uint64, len(h.bounds)+1)
	for si := range h.shards {
		s := &h.shards[si]
		for i := range s.counts {
			counts[i] += s.counts[i].Load()
		}
		count += s.count.Load()
		sum += math.Float64frombits(s.sum.Load())
	}
	return counts, count, sum
}

// Metric kinds as they appear in exposition and snapshots.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// metricEntry is one registered series.
type metricEntry struct {
	name   string // full series name, possibly with an inline {label} set
	base   string // name before the label braces
	labels string // label set without braces ("" when unlabeled)
	help   string
	kind   string

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry holds an ordered set of named metrics. Registration is
// get-or-create; reads (exposition, snapshot) merge histogram shards.
// A nil *Registry hands out nil handles, so a disabled registry costs
// only the handles' nil checks.
type Registry struct {
	mu      sync.Mutex
	entries []*metricEntry
	byName  map[string]*metricEntry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metricEntry)}
}

// splitName separates an inline label set from the series name:
// `x_total{op="a"}` -> ("x_total", `op="a"`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// lookup returns the existing entry for name, panicking on a kind clash
// (a programming error, like redeclaring a variable at a new type).
func (r *Registry) lookup(name, kind string) (*metricEntry, bool) {
	e, ok := r.byName[name]
	if ok && e.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, e.kind, kind))
	}
	return e, ok
}

// register adds a new entry under the lock. Label values are normalized
// to their escaped exposition form once here, so rendering stays a plain
// string write.
func (r *Registry) register(e *metricEntry) {
	e.base, e.labels = splitName(e.name)
	e.labels = escapeLabelPairs(e.labels)
	r.entries = append(r.entries, e)
	r.byName[e.name] = e
}

// labelValueEscaper renders a label value onto an exposition line per the
// text format 0.0.4 rules: backslash, double-quote, and newline must be
// escaped (unlike HELP text, where quotes are legal).
var labelValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabelPairs re-renders a raw inline label set (`k="v",k2="v2"`)
// with every value escaped for text exposition. Values are taken
// literally: a value's closing quote is the first '"' followed by ',' or
// end-of-set, so embedded quotes, backslashes, and newlines pass through
// and come out escaped. Input that does not parse as label pairs is
// returned unchanged (the historical raw passthrough).
func escapeLabelPairs(labels string) string {
	if labels == "" {
		return ""
	}
	var b strings.Builder
	rest := labels
	for len(rest) > 0 {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 || eq+1 >= len(rest) || rest[eq+1] != '"' {
			return labels
		}
		val := rest[eq+2:]
		// Closing quote: the first '"' that ends the pair (followed by
		// ',' or nothing).
		end := -1
		for i := 0; i < len(val); i++ {
			if val[i] == '"' && (i == len(val)-1 || val[i+1] == ',') {
				end = i
				break
			}
		}
		if end < 0 {
			return labels
		}
		b.WriteString(rest[:eq+2])
		b.WriteString(labelValueEscaper.Replace(val[:end]))
		b.WriteByte('"')
		rest = val[end+1:]
		if len(rest) > 0 {
			if rest[0] != ',' {
				return labels
			}
			b.WriteByte(',')
			rest = rest[1:]
		}
	}
	return b.String()
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil (no-op) handle.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.lookup(name, KindCounter); ok {
		return e.c
	}
	e := &metricEntry{name: name, help: help, kind: KindCounter, c: new(Counter)}
	r.register(e)
	return e.c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.lookup(name, KindGauge); ok {
		return e.g
	}
	e := &metricEntry{name: name, help: help, kind: KindGauge, g: new(Gauge)}
	r.register(e)
	return e.g
}

// Histogram returns the histogram registered under name, creating it with
// opts on first use (later opts are ignored — the first registration wins,
// which is what idempotent per-epoch re-registration needs).
func (r *Registry) Histogram(name, help string, opts HistogramOpts) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.lookup(name, KindHistogram); ok {
		return e.h
	}
	e := &metricEntry{name: name, help: help, kind: KindHistogram, h: NewHistogram(opts)}
	r.register(e)
	return e.h
}

// MetricSnapshot is the merged read-side view of one series, stable
// enough to ship over the wire protocol's metrics-dump message.
type MetricSnapshot struct {
	Name string `json:"name"` // full series name including inline labels
	Kind string `json:"kind"`
	// Value carries a counter's cumulative count or a gauge's level.
	Value float64 `json:"value,omitempty"`
	// Histogram fields: merged observation count and sum, the finite
	// bucket upper bounds, and the per-bucket (non-cumulative) counts —
	// len(Counts) == len(Bounds)+1, the last slot being the +Inf bucket.
	Count  uint64    `json:"count,omitempty"`
	Sum    float64   `json:"sum,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"counts,omitempty"`
	// Exemplars carries the last flight trace ID observed into each
	// bucket as 16-digit hex ("" for buckets without one); omitted
	// entirely when no bucket has an exemplar. JSON/snapshot only — the
	// Prometheus text exposition stays plain "name value" samples.
	Exemplars []string `json:"exemplars,omitempty"`
}

// Mean is a histogram snapshot's average observation (0 when empty).
func (m MetricSnapshot) Mean() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum / float64(m.Count)
}

// Snapshot merges every registered series into a stable-order dump
// (registration order). A nil registry snapshots empty.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	out := make([]MetricSnapshot, 0, len(r.ordered()))
	for _, e := range r.ordered() {
		m := MetricSnapshot{Name: e.name, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			m.Value = float64(e.c.Value())
		case KindGauge:
			m.Value = e.g.Value()
		case KindHistogram:
			counts, count, sum := e.h.merge()
			m.Count, m.Sum = count, sum
			m.Bounds = append([]float64(nil), e.h.bounds...)
			m.Counts = counts
			m.Exemplars = e.h.exemplarStrings()
		}
		out = append(out, m)
	}
	return out
}

// exemplarStrings renders the per-bucket exemplar trace IDs, or nil when
// no bucket has seen a traced observation.
func (h *Histogram) exemplarStrings() []string {
	any := false
	for i := range h.exemplars {
		if h.exemplars[i].Load() != 0 {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	out := make([]string, len(h.exemplars))
	for i := range h.exemplars {
		if t := h.exemplars[i].Load(); t != 0 {
			out[i] = flight.FormatTrace(t)
		}
	}
	return out
}

// ordered copies the entry list under the lock; entries themselves are
// append-only and their values atomic, so rendering happens lock-free.
func (r *Registry) ordered() []*metricEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metricEntry(nil), r.entries...)
}

// helpEscaper renders HELP text onto one exposition line.
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// fmtFloat renders a float the way Prometheus text exposition expects.
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// series renders "base{labels,extra} value" with the brace bookkeeping
// that merging an inline label set with per-bucket le labels needs.
func series(b *strings.Builder, base, labels, extra, value string) {
	b.WriteString(base)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// WritePrometheus renders every registered series in Prometheus text
// exposition format 0.0.4: HELP/TYPE once per base name (label variants
// share a header), then one line per sample, histograms expanded into
// cumulative _bucket{le=...}, _sum, and _count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// All series of one family must be contiguous in the exposition, so
	// group label variants under their base name in first-seen order.
	var bases []string
	families := make(map[string][]*metricEntry)
	for _, e := range r.ordered() {
		if _, ok := families[e.base]; !ok {
			bases = append(bases, e.base)
		}
		families[e.base] = append(families[e.base], e)
	}
	var b strings.Builder
	for _, base := range bases {
		group := families[base]
		fmt.Fprintf(&b, "# HELP %s %s\n", base, helpEscaper.Replace(group[0].help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", base, group[0].kind)
		for _, e := range group {
			r.writeSeries(&b, e)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSeries renders one entry's sample lines.
func (r *Registry) writeSeries(b *strings.Builder, e *metricEntry) {
	switch e.kind {
	case KindCounter:
		series(b, e.base, e.labels, "", strconv.FormatUint(e.c.Value(), 10))
	case KindGauge:
		series(b, e.base, e.labels, "", fmtFloat(e.g.Value()))
	case KindHistogram:
		counts, count, sum := e.h.merge()
		cum := uint64(0)
		for i, bound := range e.h.bounds {
			cum += counts[i]
			series(b, e.base+"_bucket", e.labels, `le="`+fmtFloat(bound)+`"`, strconv.FormatUint(cum, 10))
		}
		series(b, e.base+"_bucket", e.labels, `le="+Inf"`, strconv.FormatUint(count, 10))
		series(b, e.base+"_sum", e.labels, "", fmtFloat(sum))
		series(b, e.base+"_count", e.labels, "", strconv.FormatUint(count, 10))
	}
}
