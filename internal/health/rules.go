package health

import (
	"fmt"
	"strings"

	"saiyan/internal/flight"
)

// Kind selects a rule's predicate over the matched series.
type Kind int

const (
	// KindThreshold compares the latest raw value against Threshold.
	KindThreshold Kind = iota + 1
	// KindWindowMean compares the mean of the last Window raw points;
	// it stays silent until the series holds Window points.
	KindWindowMean
	// KindConsecutiveBreach fires only after the latest raw value has
	// breached Threshold for Consecutive epochs in a row.
	KindConsecutiveBreach
	// KindBurnRate treats the series as a success ratio in [0,1] with
	// objective Target: burn = (1 - mean(Window)) / (1 - Target), the
	// multiple of the error budget being consumed. The rule compares
	// burn against Threshold (Op Above, burn > 2 means "burning twice
	// the budget").
	KindBurnRate
)

func (k Kind) String() string {
	switch k {
	case KindThreshold:
		return "threshold"
	case KindWindowMean:
		return "window-mean"
	case KindConsecutiveBreach:
		return "consecutive-breach"
	case KindBurnRate:
		return "burn-rate"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Op is the breach comparison direction.
type Op int

const (
	// OpBelow breaches when the evaluated value is < Threshold.
	OpBelow Op = iota + 1
	// OpAbove breaches when the evaluated value is > Threshold.
	OpAbove
)

func (o Op) String() string {
	switch o {
	case OpBelow:
		return "below"
	case OpAbove:
		return "above"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Rule is one declarative SLO rule. Series is an exact name or a
// pattern with a single '*' matching any substring ("channel.*.prr"
// covers every channel's PRR series, including ones registered after
// the rule). Rules are evaluated at every EndEpoch in registration
// order, against matched series in their registration order — fully
// deterministic.
type Rule struct {
	Name      string
	Series    string
	Kind      Kind
	Op        Op
	Threshold float64

	// Window is the raw-point lookback for KindWindowMean and
	// KindBurnRate (default 4).
	Window int
	// Consecutive is the breach streak KindConsecutiveBreach requires
	// before firing (default 2).
	Consecutive int
	// Target is KindBurnRate's success objective, 0 <= Target < 1.
	Target float64
}

func (r Rule) withDefaults() (Rule, error) {
	if r.Name == "" {
		return r, fmt.Errorf("missing Name")
	}
	if r.Series == "" {
		return r, fmt.Errorf("%s: missing Series", r.Name)
	}
	if strings.Count(r.Series, "*") > 1 {
		return r, fmt.Errorf("%s: series pattern %q has more than one '*'", r.Name, r.Series)
	}
	switch r.Kind {
	case KindThreshold, KindWindowMean, KindConsecutiveBreach, KindBurnRate:
	default:
		return r, fmt.Errorf("%s: unknown Kind %d", r.Name, int(r.Kind))
	}
	switch r.Op {
	case OpBelow, OpAbove:
	case 0:
		if r.Kind == KindBurnRate {
			r.Op = OpAbove // burn rates alert high by construction
		} else {
			return r, fmt.Errorf("%s: missing Op", r.Name)
		}
	default:
		return r, fmt.Errorf("%s: unknown Op %d", r.Name, int(r.Op))
	}
	if r.Window == 0 {
		r.Window = 4
	}
	if r.Window < 1 {
		return r, fmt.Errorf("%s: Window %d < 1", r.Name, r.Window)
	}
	if r.Consecutive == 0 {
		r.Consecutive = 2
	}
	if r.Consecutive < 1 {
		return r, fmt.Errorf("%s: Consecutive %d < 1", r.Name, r.Consecutive)
	}
	if r.Kind == KindBurnRate && (r.Target < 0 || r.Target >= 1) {
		return r, fmt.Errorf("%s: Target %g outside [0,1)", r.Name, r.Target)
	}
	return r, nil
}

// matchPattern matches a name against an exact string or a single-'*'
// pattern.
func matchPattern(pat, name string) bool {
	i := strings.IndexByte(pat, '*')
	if i < 0 {
		return pat == name
	}
	prefix, suffix := pat[:i], pat[i+1:]
	return len(name) >= len(prefix)+len(suffix) &&
		strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix)
}

// ruleRT is a rule plus its runtime state: the series it has matched so
// far (discovered lazily as series register, in registration order) and
// per-target breach state.
type ruleRT struct {
	rule    Rule
	scanned int // series index high-water mark
	targets []*target
}

type target struct {
	se        *Series
	streak    int
	firing    bool
	since     int
	lastValue float64
}

// value evaluates the rule's predicate input over one series; ok is
// false while the series lacks the data the predicate needs.
func (r Rule) value(se *Series) (v float64, ok bool) {
	raw := &se.tiers[0]
	switch r.Kind {
	case KindThreshold, KindConsecutiveBreach:
		if se.total == 0 {
			return 0, false
		}
		return se.last.Sum, true
	default: // KindWindowMean, KindBurnRate
		if raw.Len() < r.Window {
			return 0, false
		}
		var sum float64
		for i := raw.Len() - r.Window; i < raw.Len(); i++ {
			sum += raw.At(i).Sum
		}
		mean := sum / float64(r.Window)
		if r.Kind == KindWindowMean {
			return mean, true
		}
		return (1 - mean) / (1 - r.Target), true
	}
}

func (r Rule) breached(v float64) bool {
	if r.Op == OpBelow {
		return v < r.Threshold
	}
	return v > r.Threshold
}

// harvestWindow is how many trailing epochs of exemplar traces a firing
// alert collects.
func (r Rule) harvestWindow() int {
	w := 1
	if r.Kind == KindWindowMean || r.Kind == KindBurnRate {
		w = r.Window
	}
	if r.Kind == KindConsecutiveBreach && r.Consecutive > w {
		w = r.Consecutive
	}
	return w
}

// evaluate runs every rule against its matched series and journals
// firing/clearing transitions. Caller holds s.mu.
func (s *Store) evaluate(epoch int) {
	for _, rt := range s.rules {
		for ; rt.scanned < len(s.series); rt.scanned++ {
			se := s.series[rt.scanned]
			if matchPattern(rt.rule.Series, se.name) {
				rt.targets = append(rt.targets, &target{se: se})
			}
		}
		need := 1
		if rt.rule.Kind == KindConsecutiveBreach {
			need = rt.rule.Consecutive
		}
		for _, tg := range rt.targets {
			v, ok := rt.rule.value(tg.se)
			if !ok {
				continue
			}
			tg.lastValue = v
			if rt.rule.breached(v) {
				tg.streak++
			} else {
				tg.streak = 0
			}
			switch {
			case !tg.firing && tg.streak >= need:
				tg.firing, tg.since = true, epoch
				s.transition(rt, tg, epoch, v, StateFiring)
			case tg.firing && tg.streak == 0:
				tg.firing = false
				s.transition(rt, tg, epoch, v, StateCleared)
			}
		}
	}
}

// transition journals one alert edge and mirrors it into the epoch's
// delta. Transitions are rare (steady state emits none), so the
// allocations below — trace strings, journal copies — stay off the
// epoch hot path.
func (s *Store) transition(rt *ruleRT, tg *target, epoch int, v float64, state string) {
	a := Alert{
		ID:         alertID(rt.rule.Name, tg.se.name, epoch),
		Rule:       rt.rule.Name,
		Series:     tg.se.name,
		Epoch:      epoch,
		State:      state,
		Value:      v,
		Threshold:  rt.rule.Threshold,
		SinceEpoch: tg.since,
	}
	if state == StateFiring {
		a.Traces = tg.se.harvest(epoch, rt.rule.harvestWindow())
	}
	s.journal.Push(a)
	s.delta.Alerts = append(s.delta.Alerts, a)
}

// harvest collects exemplar traces recorded within the trailing window
// epochs, oldest first, deduplicated, formatted by flight.FormatTrace.
func (se *Series) harvest(epoch, window int) []string {
	lo := epoch - window + 1
	var out []string
	for i := 0; i < se.exem.Len(); i++ {
		ex := se.exem.At(i)
		if int(ex.epoch) < lo || int(ex.epoch) > epoch {
			continue
		}
		t := flight.FormatTrace(ex.trace)
		dup := false
		for _, have := range out {
			if have == t {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, t)
		}
	}
	return out
}

// Alert states as they appear in journals, deltas, and JSON.
const (
	StateFiring  = "firing"
	StateCleared = "cleared"
)

// Alert is one journal entry: a firing or clearing edge of one (rule,
// series) pair. JSON field names are part of the wire protocol's stable
// health schema (message 0x19 and /health).
type Alert struct {
	// ID is derived purely from (rule, series, epoch) — no clock, no
	// randomness — so journals are byte-identical across runs and the
	// same transition gets the same ID everywhere.
	ID     string `json:"id"`
	Rule   string `json:"rule"`
	Series string `json:"series"`
	Epoch  int    `json:"epoch"`
	State  string `json:"state"`
	// Value is the evaluated predicate input at the transition (for
	// burn-rate rules, the burn multiple).
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// SinceEpoch is the epoch the alert started firing (equal to Epoch
	// on a firing edge; the original firing epoch on a clear).
	SinceEpoch int `json:"since_epoch"`
	// Traces are exemplar flight-recorder trace IDs from the breaching
	// window, fixed-width hex per flight.FormatTrace; resolve them via
	// /flight?trace= or flight.QueryJSON.
	Traces []string `json:"traces,omitempty"`
}

// alertID hashes (rule, series, epoch) with FNV-1a and finishes with
// the splitmix64 mixer — the same finalizer flight trace IDs use — then
// renders fixed-width hex.
func alertID(rule, series string, epoch int) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(rule); i++ {
		h = (h ^ uint64(rule[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	for i := 0; i < len(series); i++ {
		h = (h ^ uint64(series[i])) * prime64
	}
	h ^= uint64(uint32(epoch)) * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return fmt.Sprintf("%016x", h)
}

// DefaultRules is the rule set `saiyan serve` installs: one rule per
// predicate kind, tuned so the stock degradation scenario (-degrade
// 2:0:12) demonstrably fires the PRR rule while a healthy deployment
// stays quiet.
func DefaultRules() []Rule {
	return []Rule{
		// A channel's per-epoch PRR averaging under 0.9 across 4 epochs
		// is a degraded link, not one unlucky epoch: a single decode
		// failure in a healthy window stays above the line, the stock
		// 12 dB jam drags two consecutive epochs down and breaches it.
		{Name: "prr-degraded", Series: "channel.*.prr", Kind: KindWindowMean, Op: OpBelow, Threshold: 0.90, Window: 4},
		// Mean session SNR pinned below the calibration floor for 3
		// consecutive epochs.
		{Name: "snr-floor", Series: "channel.*.snr", Kind: KindConsecutiveBreach, Op: OpBelow, Threshold: 15, Consecutive: 3},
		// Cumulative delivery ratio burning the 95% objective's error
		// budget at more than 4x.
		{Name: "delivery-burn", Series: "gateway.delivery_ratio", Kind: KindBurnRate, Threshold: 4, Target: 0.95, Window: 8},
		// A retransmission storm: more than 16 retransmissions scheduled
		// in a single epoch.
		{Name: "retx-storm", Series: "gateway.retransmits", Kind: KindThreshold, Op: OpAbove, Threshold: 16},
	}
}
