// Package health is the link-health plane: a dependency-free,
// multi-resolution time-series store with an SLO rules engine and a
// structured alert journal, fed at epoch boundaries by the gateway and
// the wire server.
//
// The store is RRD-style: every series owns a fixed ladder of ring
// buffers. Tier 0 holds raw per-epoch points; each higher tier holds
// min/max/sum/count bins covering fanIn bins of the tier below, so a
// 512-point ladder with fan-in 8 remembers ~512 epochs at full
// resolution, ~4k epochs at tier 1, and ~32k at tier 2 — all in fixed
// memory decided at registration. Appends are pure index arithmetic:
// after the first epoch has sized the pending-delta buffer, the epoch
// path performs zero allocations (same bar as internal/obs and
// internal/flight).
//
// Determinism contract: the store has no clock and no randomness.
// Rollup contents, rule evaluations, alert IDs, and journal order are a
// pure function of the append sequence, and the gateway appends in
// schedule order on the epoch goroutine — so rollups, journals, and
// wire deltas are byte-identical at any worker count (pinned by
// TestHealthDeterminism). Alert IDs are derived from (rule, series,
// epoch) alone. The one escape hatch is server-plane series such as
// server.fanout_drops, which mirror client behaviour and are documented
// telemetry-grade, like EpochReport.Elapsed.
//
// Like obs and flight, the hot layers only ever write (Append /
// AppendTrace / EndEpoch); reads (HealthJSON, TimeseriesJSON,
// DeltaJSON, Journal) belong to the telemetry plane and
// are banned in hot-layer packages by the obsgate analyzer. A nil
// *Store and a nil *Series are valid no-ops, so callers wire health in
// without sprinkling conditionals.
package health

import (
	"fmt"
	"math"
	"sync"
)

// The rollup ladder and ring shapes.
const (
	// rawCap is the per-tier ring capacity in bins. Every tier of every
	// series holds exactly rawCap bins, so one series costs
	// tiers*rawCap*sizeof(Bin) up front and never grows.
	rawCap = 512
	// fanIn is how many tier-N bins roll into one tier-N+1 bin.
	fanIn = 8
	// tiers is the ladder depth including the raw tier.
	tiers = 3
	// journalCap bounds the alert journal ring.
	journalCap = 256
	// exemplarCap bounds the per-series exemplar trace ring fed by
	// AppendTrace; firing alerts harvest their trace lists from it.
	exemplarCap = 8
)

// Options configures a Store. The zero value is usable: a store with no
// rules.
type Options struct {
	// Rules is the SLO rule set evaluated at every EndEpoch.
	Rules []Rule
}

// Bin is one rollup cell. At tier 0 a bin is a single point (Count 1,
// Min == Max == Sum); higher tiers merge fanIn lower bins. Epoch is the
// first epoch the bin covers. Mean() is Sum/Count.
type Bin struct {
	Epoch uint32
	Min   float64
	Max   float64
	Sum   float64
	Count uint32
}

// Mean is the bin's average value.
func (b Bin) Mean() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

func (b *Bin) merge(o Bin) {
	if o.Min < b.Min {
		b.Min = o.Min
	}
	if o.Max > b.Max {
		b.Max = o.Max
	}
	b.Sum += o.Sum
	b.Count += o.Count
}

// ring is a fixed-capacity bin ring; bins is preallocated at full
// length, so push never allocates.
type ring struct {
	bins []Bin
	head int // next write slot
	n    int // valid bins, oldest first via at()
}

func (r *ring) push(b Bin) {
	r.bins[r.head] = b
	r.head++
	if r.head == len(r.bins) {
		r.head = 0
	}
	if r.n < len(r.bins) {
		r.n++
	}
}

// at returns the i-th valid bin, oldest first, i in [0, n).
func (r *ring) at(i int) Bin {
	idx := r.head - r.n + i
	if idx < 0 {
		idx += len(r.bins)
	}
	return r.bins[idx]
}

type exemplar struct {
	epoch uint32
	trace uint64
}

// Series is one named time series. Handles are obtained from
// Store.Series once (registration allocates the ring ladder) and then
// written from the epoch goroutine. A nil *Series no-ops every method,
// mirroring the obs handle idiom.
type Series struct {
	st   *Store
	name string

	tiers []ring
	// acc[t] (t >= 1) accumulates the partial tier-t bin; accN[t] counts
	// how many tier-(t-1) bins it has absorbed so far.
	acc  []Bin
	accN []int

	exem   []exemplar
	exHead int
	exN    int

	last  Bin    // most recent raw point
	total uint64 // raw points ever appended
}

// Append records one raw point for epoch. Points must be appended in
// non-decreasing epoch order; the store trusts the epoch goroutine for
// that rather than paying for a check per point.
func (se *Series) Append(epoch int, v float64) {
	se.append(epoch, v, 0)
}

// AppendTrace is Append plus a flight-recorder trace ID remembered in
// the series' exemplar ring, so an alert breaching on this window can
// point at concrete decode chains. A zero trace is ignored (flight
// trace IDs are never zero).
func (se *Series) AppendTrace(epoch int, v float64, trace uint64) {
	se.append(epoch, v, trace)
}

func (se *Series) append(epoch int, v float64, trace uint64) {
	if se == nil {
		return
	}
	v = sanitize(v)
	st := se.st
	st.mu.Lock()
	b := Bin{Epoch: uint32(epoch), Min: v, Max: v, Sum: v, Count: 1}
	se.cascade(b)
	se.last = b
	se.total++
	if trace != 0 {
		se.exem[se.exHead] = exemplar{epoch: uint32(epoch), trace: trace}
		se.exHead++
		if se.exHead == len(se.exem) {
			se.exHead = 0
		}
		if se.exN < len(se.exem) {
			se.exN++
		}
	}
	st.pending = append(st.pending, Point{Series: se.name, Epoch: epoch, Value: v})
	st.mu.Unlock()
}

// cascade pushes a bin into tier 0 and rolls full accumulators up the
// ladder. Iterative so the epoch path stays flat.
func (se *Series) cascade(b Bin) {
	for t := 0; ; {
		se.tiers[t].push(b)
		t++
		if t >= len(se.tiers) {
			return
		}
		a := &se.acc[t]
		if se.accN[t] == 0 {
			*a = b
		} else {
			a.merge(b)
		}
		se.accN[t]++
		if se.accN[t] < fanIn {
			return
		}
		b = *a
		se.accN[t] = 0
	}
}

// sanitize clamps non-finite samples the same way flight's JSON encoder
// does, so rollup sums stay finite and the JSON planes stay valid.
func sanitize(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// Point is one raw append as carried by a Delta.
type Point struct {
	Series string  `json:"series"`
	Epoch  int     `json:"epoch"`
	Value  float64 `json:"value"`
}

// Delta is one sealed epoch's worth of health-plane change: the raw
// points appended since the previous seal plus the alert transitions
// the seal's rule evaluation produced. It is the payload of the wire
// protocol's health message (0x19).
type Delta struct {
	Epoch  int     `json:"epoch"`
	Points []Point `json:"points"`
	Alerts []Alert `json:"alerts"`
}

// Store is the health plane's root object. One mutex guards all state:
// the single writer is the epoch goroutine (Append/EndEpoch), readers
// are HTTP handlers and wire fanout. Appends happen a few dozen times
// per epoch, not per frame, so the lock is nowhere near any hot loop.
type Store struct {
	mu     sync.Mutex
	series []*Series
	byName map[string]*Series

	rules []*ruleRT

	journal []Alert
	jHead   int
	jN      int

	epoch   int // last sealed epoch
	sealed  bool
	pending []Point
	delta   Delta
}

// New builds a Store. Rules are validated up front so a malformed rule
// fails at construction, not mid-run.
func New(opt Options) (*Store, error) {
	s := &Store{
		byName:  make(map[string]*Series),
		journal: make([]Alert, journalCap),
	}
	for i, r := range opt.Rules {
		rr, err := r.withDefaults()
		if err != nil {
			return nil, fmt.Errorf("health: rule %d: %w", i, err)
		}
		s.rules = append(s.rules, &ruleRT{rule: rr})
	}
	return s, nil
}

// Series returns the named series handle, registering it on first use.
// Registration allocates the full ring ladder; call it from cold paths
// (constructors), never from inside a //saiyan:hotpath body — the
// obsgate analyzer enforces this like obs counter registration. Nil
// store or empty name yields a nil (no-op) handle.
func (s *Store) Series(name string) *Series {
	if s == nil || name == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if se := s.byName[name]; se != nil {
		return se
	}
	se := &Series{
		st:    s,
		name:  name,
		tiers: make([]ring, tiers),
		acc:   make([]Bin, tiers),
		accN:  make([]int, tiers),
		exem:  make([]exemplar, exemplarCap),
	}
	for t := range se.tiers {
		se.tiers[t].bins = make([]Bin, rawCap)
	}
	s.byName[name] = se
	s.series = append(s.series, se)
	return se
}

// EndEpoch seals one epoch: it snapshots the points appended since the
// previous seal into the reusable Delta, evaluates every rule, and
// journals alert transitions. Call it exactly once per epoch from the
// epoch goroutine, after all of the epoch's appends. It never
// allocates in steady state (rule-target discovery and delta sizing
// settle during the first epochs) and never marshals — DeltaJSON
// renders on demand.
func (s *Store) EndEpoch(epoch int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.delta.Epoch = epoch
	s.delta.Points = append(s.delta.Points[:0], s.pending...)
	s.pending = s.pending[:0]
	s.delta.Alerts = s.delta.Alerts[:0]
	s.evaluate(epoch)
	s.epoch = epoch
	s.sealed = true
	s.mu.Unlock()
}

func (s *Store) appendJournal(a Alert) {
	s.journal[s.jHead] = a
	s.jHead++
	if s.jHead == len(s.journal) {
		s.jHead = 0
	}
	if s.jN < len(s.journal) {
		s.jN++
	}
}

// Journal copies the most recent n journal entries (all of them when
// n <= 0 or n exceeds the retained count), oldest first.
func (s *Store) Journal(n int) []Alert {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalLocked(n)
}

func (s *Store) journalLocked(n int) []Alert {
	if n <= 0 || n > s.jN {
		n = s.jN
	}
	out := make([]Alert, n)
	for i := 0; i < n; i++ {
		idx := s.jHead - n + i
		if idx < 0 {
			idx += len(s.journal)
		}
		out[i] = s.journal[idx]
	}
	return out
}

func (s *Store) activeLocked() []Alert {
	var out []Alert
	for _, rt := range s.rules {
		for _, tg := range rt.targets {
			if !tg.firing {
				continue
			}
			out = append(out, Alert{
				ID:         alertID(rt.rule.Name, tg.se.name, tg.since),
				Rule:       rt.rule.Name,
				Series:     tg.se.name,
				Epoch:      s.epoch,
				State:      StateFiring,
				Value:      tg.lastValue,
				Threshold:  rt.rule.Threshold,
				SinceEpoch: tg.since,
			})
		}
	}
	return out
}
