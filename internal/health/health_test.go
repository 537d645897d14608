package health

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// storeBins copies one tier of one series, oldest bin first (nil for
// unknown series or out-of-range tiers).
func storeBins(s *Store, name string, tier int) []Bin {
	s.mu.Lock()
	defer s.mu.Unlock()
	se := s.byName[name]
	if se == nil || tier < 0 || tier >= len(se.tiers) {
		return nil
	}
	r := &se.tiers[tier]
	out := make([]Bin, r.n)
	for i := range out {
		out[i] = r.at(i)
	}
	return out
}

// activeAlerts lists the currently firing alerts in rule order.
func activeAlerts(s *Store) []Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.activeLocked()
}

func mustStore(t *testing.T, opt Options) *Store {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRollupCascade(t *testing.T) {
	s := mustStore(t, Options{})
	se := s.Series("x")
	// 2*rawCap points 0..n-1: the raw ring wraps to the newest rawCap,
	// tier 1 gets n/fanIn bins of fanIn, tier 2 n/fanIn² bins of fanIn².
	const n = 2 * rawCap
	for i := 0; i < n; i++ {
		se.Append(i, float64(i))
	}
	raw := storeBins(s, "x", 0)
	if len(raw) != rawCap {
		t.Fatalf("raw bins = %d, want %d (ring cap)", len(raw), rawCap)
	}
	if raw[0].Epoch != n-rawCap || raw[rawCap-1].Epoch != n-1 {
		t.Errorf("raw ring holds epochs %d..%d, want %d..%d", raw[0].Epoch, raw[rawCap-1].Epoch, n-rawCap, n-1)
	}
	t1 := storeBins(s, "x", 1)
	if len(t1) != n/fanIn {
		t.Fatalf("tier-1 bins = %d, want %d", len(t1), n/fanIn)
	}
	// Second tier-1 bin covers epochs fanIn..2*fanIn-1.
	b := t1[1]
	if b.Epoch != fanIn || b.Min != fanIn || b.Max != 2*fanIn-1 || b.Count != fanIn || b.Mean() != (3*fanIn-1)/2.0 {
		t.Errorf("tier-1 bin 1 = %+v (mean %g), want epoch=min=%d max=%d count=%d mean=%g",
			b, b.Mean(), fanIn, 2*fanIn-1, fanIn, (3*fanIn-1)/2.0)
	}
	const span = fanIn * fanIn
	t2 := storeBins(s, "x", 2)
	if len(t2) != n/span {
		t.Fatalf("tier-2 bins = %d, want %d", len(t2), n/span)
	}
	b = t2[0]
	if b.Epoch != 0 || b.Min != 0 || b.Max != span-1 || b.Count != span || b.Mean() != (span-1)/2.0 {
		t.Errorf("tier-2 bin = %+v (mean %g), want epoch=0 min=0 max=%d count=%d mean=%g",
			b, b.Mean(), span-1, span, (span-1)/2.0)
	}
	if got := storeBins(s, "x", tiers); got != nil {
		t.Errorf("ladder has a tier %d: %d bins", tiers, len(got))
	}
}

func TestSanitizeNonFinite(t *testing.T) {
	s := mustStore(t, Options{})
	se := s.Series("x")
	se.Append(0, math.NaN())
	se.Append(1, math.Inf(1))
	se.Append(2, math.Inf(-1))
	bins := storeBins(s, "x", 0)
	want := []float64{0, math.MaxFloat64, -math.MaxFloat64}
	for i, b := range bins {
		if b.Sum != want[i] {
			t.Errorf("bin %d = %g, want %g", i, b.Sum, want[i])
		}
	}
	if b := s.TimeseriesJSON("x", 0); !json.Valid(b) {
		t.Errorf("timeseries JSON invalid after non-finite appends: %s", b)
	}
}

func TestNilHandles(t *testing.T) {
	var s *Store
	var se *Series
	se.Append(0, 1)
	se.AppendTrace(0, 1, 2)
	s.EndEpoch(0)
	if s.Series("x") != nil {
		t.Error("nil store Series() != nil")
	}
	if got := s.HealthJSON(); string(got) != "{}" {
		t.Errorf("nil store HealthJSON = %q", got)
	}
	if s.TimeseriesJSON("", 0) != nil {
		t.Error("nil store TimeseriesJSON != nil")
	}
	if string(s.DeltaJSON()) != "{}" {
		t.Errorf("nil store DeltaJSON = %q", s.DeltaJSON())
	}
	st := mustStore(t, Options{})
	if st.Series("") != nil {
		t.Error("empty-name Series() != nil")
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Rules: []Rule{{}}},
		{Rules: []Rule{{Name: "r"}}},
		{Rules: []Rule{{Name: "r", Series: "x"}}},
		{Rules: []Rule{{Name: "r", Series: "x", Kind: KindThreshold}}},
		{Rules: []Rule{{Name: "r", Series: "a*b*c", Kind: KindThreshold, Op: OpAbove}}},
		{Rules: []Rule{{Name: "r", Series: "x", Kind: KindBurnRate, Target: 1}}},
		{Rules: []Rule{{Name: "r", Series: "x", Kind: KindWindowMean, Op: OpBelow, Window: -1}}},
	}
	for i, opt := range bad {
		if _, err := New(opt); err == nil {
			t.Errorf("case %d: New(%+v) accepted, want error", i, opt)
		}
	}
	if _, err := New(Options{Rules: DefaultRules()}); err != nil {
		t.Errorf("DefaultRules rejected: %v", err)
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pat, name string
		want      bool
	}{
		{"a.b", "a.b", true},
		{"a.b", "a.c", false},
		{"channel.*.prr", "channel.0.prr", true},
		{"channel.*.prr", "channel.12.prr", true},
		{"channel.*.prr", "channel.0.snr", false},
		{"channel.*.prr", "channel..prr", true},
		{"channel.*", "channel.0.snr", true},
		{"*", "anything", true},
		{"*.prr", "x.prr", true},
		{"*.prr", "prr", false},
	}
	for _, c := range cases {
		if got := matchPattern(c.pat, c.name); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.pat, c.name, got, c.want)
		}
	}
}

// seal runs one epoch appending the given values to their series.
func seal(s *Store, epoch int, vals map[*Series]float64, order []*Series) {
	for _, se := range order {
		se.Append(epoch, vals[se])
	}
	s.EndEpoch(epoch)
}

func TestThresholdRuleFiresAndClears(t *testing.T) {
	s := mustStore(t, Options{Rules: []Rule{
		{Name: "hot", Series: "temp", Kind: KindThreshold, Op: OpAbove, Threshold: 10},
	}})
	se := s.Series("temp")
	order := []*Series{se}
	seal(s, 0, map[*Series]float64{se: 5}, order)
	if j := s.Journal(0); len(j) != 0 {
		t.Fatalf("no breach yet, journal = %+v", j)
	}
	seal(s, 1, map[*Series]float64{se: 11}, order)
	j := s.Journal(0)
	if len(j) != 1 || j[0].State != StateFiring || j[0].Epoch != 1 {
		t.Fatalf("journal after breach = %+v, want one firing@1", j)
	}
	if a := activeAlerts(s); len(a) != 1 || a[0].Rule != "hot" || a[0].SinceEpoch != 1 {
		t.Fatalf("active = %+v", a)
	}
	seal(s, 2, map[*Series]float64{se: 12}, order) // still breaching: no new edge
	if j := s.Journal(0); len(j) != 1 {
		t.Fatalf("steady breach added journal entries: %+v", j)
	}
	seal(s, 3, map[*Series]float64{se: 9}, order)
	j = s.Journal(0)
	if len(j) != 2 || j[1].State != StateCleared || j[1].SinceEpoch != 1 {
		t.Fatalf("journal after clear = %+v", j)
	}
	if a := activeAlerts(s); len(a) != 0 {
		t.Fatalf("active after clear = %+v", a)
	}
}

func TestConsecutiveBreachNeedsStreak(t *testing.T) {
	s := mustStore(t, Options{Rules: []Rule{
		{Name: "r", Series: "x", Kind: KindConsecutiveBreach, Op: OpBelow, Threshold: 1, Consecutive: 3},
	}})
	se := s.Series("x")
	order := []*Series{se}
	vals := []float64{0, 0, 5, 0, 0, 0, 5}
	fires := map[int]bool{5: true}  // only after three 0s in a row
	clears := map[int]bool{6: true} // first non-breach while firing
	for e, v := range vals {
		before := len(s.Journal(0))
		seal(s, e, map[*Series]float64{se: v}, order)
		j := s.Journal(0)
		switch {
		case fires[e]:
			if len(j) != before+1 || j[len(j)-1].State != StateFiring {
				t.Fatalf("epoch %d: want firing edge, journal %+v", e, j)
			}
		case clears[e]:
			if len(j) != before+1 || j[len(j)-1].State != StateCleared {
				t.Fatalf("epoch %d: want cleared edge, journal %+v", e, j)
			}
		default:
			if len(j) != before {
				t.Fatalf("epoch %d: unexpected edge, journal %+v", e, j)
			}
		}
	}
}

func TestWindowMeanWaitsForWindow(t *testing.T) {
	s := mustStore(t, Options{Rules: []Rule{
		{Name: "r", Series: "x", Kind: KindWindowMean, Op: OpBelow, Threshold: 0.5, Window: 4},
	}})
	se := s.Series("x")
	order := []*Series{se}
	// All zeros: breaches as soon as 4 points exist, i.e. epoch 3.
	for e := 0; e < 4; e++ {
		seal(s, e, map[*Series]float64{se: 0}, order)
	}
	j := s.Journal(0)
	if len(j) != 1 || j[0].Epoch != 3 || j[0].State != StateFiring {
		t.Fatalf("journal = %+v, want one firing@3", j)
	}
}

func TestBurnRateRule(t *testing.T) {
	s := mustStore(t, Options{Rules: []Rule{
		{Name: "burn", Series: "ratio", Kind: KindBurnRate, Threshold: 2, Target: 0.9, Window: 2},
	}})
	se := s.Series("ratio")
	order := []*Series{se}
	// Mean 0.95: burn (1-0.95)/(1-0.9) = 0.5 — no breach.
	seal(s, 0, map[*Series]float64{se: 0.95}, order)
	seal(s, 1, map[*Series]float64{se: 0.95}, order)
	if j := s.Journal(0); len(j) != 0 {
		t.Fatalf("healthy ratio fired: %+v", j)
	}
	// Mean 0.7: burn 3 > 2 — fires.
	seal(s, 2, map[*Series]float64{se: 0.45}, order)
	j := s.Journal(0)
	if len(j) != 1 || j[0].State != StateFiring {
		t.Fatalf("journal = %+v, want firing", j)
	}
	if got, want := j[0].Value, (1-0.7)/(1-0.9); math.Abs(got-want) > 1e-12 {
		t.Errorf("burn value = %g, want %g", got, want)
	}
}

func TestWildcardDiscoversLateSeries(t *testing.T) {
	s := mustStore(t, Options{Rules: []Rule{
		{Name: "r", Series: "channel.*.prr", Kind: KindThreshold, Op: OpBelow, Threshold: 0.5},
	}})
	a := s.Series("channel.0.prr")
	seal(s, 0, map[*Series]float64{a: 0}, []*Series{a})
	// Series registered after the first evaluation still get matched.
	b := s.Series("channel.1.prr")
	seal(s, 1, map[*Series]float64{a: 1, b: 0}, []*Series{a, b})
	j := s.Journal(0)
	if len(j) != 3 {
		t.Fatalf("journal = %+v, want fire(ch0)@0, clear(ch0)@1, fire(ch1)@1", j)
	}
	if j[2].Series != "channel.1.prr" || j[2].State != StateFiring {
		t.Errorf("late series edge = %+v", j[2])
	}
}

func TestAlertIDsDeterministic(t *testing.T) {
	a := alertID("rule", "series", 7)
	b := alertID("rule", "series", 7)
	if a != b {
		t.Fatalf("same inputs, different IDs: %s vs %s", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("ID %q not 16 hex chars", a)
	}
	distinct := map[string]bool{a: true}
	for _, id := range []string{
		alertID("rule", "series", 8),
		alertID("rule", "serie", 7),
		alertID("rul", "series", 7),
		alertID("rules", "eries", 7), // boundary shift must not collide
	} {
		if distinct[id] {
			t.Errorf("ID collision: %s", id)
		}
		distinct[id] = true
	}
}

func TestJournalRingWraps(t *testing.T) {
	s := mustStore(t, Options{Rules: []Rule{
		{Name: "r", Series: "x", Kind: KindThreshold, Op: OpAbove, Threshold: 0},
	}})
	se := s.Series("x")
	order := []*Series{se}
	// Alternate breach/clear: every epoch journals one edge.
	const last = journalCap + 5
	for e := 0; e <= last; e++ {
		v := 1.0
		if e%2 == 1 {
			v = -1
		}
		seal(s, e, map[*Series]float64{se: v}, order)
	}
	j := s.Journal(0)
	if len(j) != journalCap {
		t.Fatalf("journal holds %d, want cap %d", len(j), journalCap)
	}
	for i := 1; i < len(j); i++ {
		if j[i].Epoch <= j[i-1].Epoch {
			t.Fatalf("journal out of order: %+v", j)
		}
	}
	if j[0].Epoch != last-journalCap+1 || j[len(j)-1].Epoch != last {
		t.Errorf("journal holds epochs %d..%d, want %d..%d", j[0].Epoch, j[len(j)-1].Epoch, last-journalCap+1, last)
	}
	if got := s.Journal(2); len(got) != 2 || got[1].Epoch != last {
		t.Errorf("Journal(2) = %+v", got)
	}
}

func TestExemplarHarvest(t *testing.T) {
	store := func() (*Store, *Series) {
		s := mustStore(t, Options{Rules: []Rule{
			{Name: "r", Series: "x", Kind: KindWindowMean, Op: OpBelow, Threshold: 0.5, Window: 2},
		}})
		return s, s.Series("x")
	}
	s, se := store()
	se.AppendTrace(0, 1, 0xaaaa) // healthy, outside harvest window later
	s.EndEpoch(0)
	se.AppendTrace(1, 0, 0xbbbb)
	s.EndEpoch(1)
	se.AppendTrace(2, 0, 0xcccc)
	se.AppendTrace(2, 0, 0xcccc) // duplicate trace must collapse
	s.EndEpoch(2)
	j := s.Journal(0)
	if len(j) != 1 || j[0].State != StateFiring || j[0].Epoch != 2 {
		t.Fatalf("journal = %+v", j)
	}
	want := []string{"000000000000bbbb", "000000000000cccc"}
	if len(j[0].Traces) != len(want) {
		t.Fatalf("traces = %v, want %v", j[0].Traces, want)
	}
	for i := range want {
		if j[0].Traces[i] != want[i] {
			t.Errorf("trace %d = %s, want %s", i, j[0].Traces[i], want[i])
		}
	}

	// The ring keeps the newest exemplarCap traces: one more than that
	// inside the window evicts the oldest.
	s, se = store()
	for i := 0; i <= exemplarCap; i++ {
		se.AppendTrace(0, 0, uint64(0x100+i))
	}
	s.EndEpoch(0)
	j = s.Journal(0)
	if len(j) != 1 || len(j[0].Traces) != exemplarCap {
		t.Fatalf("journal = %+v, want one firing alert with %d traces", j, exemplarCap)
	}
	if j[0].Traces[0] != "0000000000000101" {
		t.Errorf("oldest harvested trace = %s, want the evicted 0x100's successor", j[0].Traces[0])
	}
}

func TestDeltaJSONCarriesPointsAndAlerts(t *testing.T) {
	s := mustStore(t, Options{Rules: []Rule{
		{Name: "r", Series: "x", Kind: KindThreshold, Op: OpAbove, Threshold: 0.5},
	}})
	se := s.Series("x")
	y := s.Series("y")
	se.Append(0, 1)
	y.Append(0, 2)
	s.EndEpoch(0)
	var d Delta
	if err := json.Unmarshal(s.DeltaJSON(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Epoch != 0 || len(d.Points) != 2 || len(d.Alerts) != 1 {
		t.Fatalf("delta = %+v", d)
	}
	if d.Points[0].Series != "x" || d.Points[1].Series != "y" {
		t.Errorf("points out of append order: %+v", d.Points)
	}
	// The next seal's delta replaces, not accumulates.
	se.Append(1, 1)
	s.EndEpoch(1)
	if err := json.Unmarshal(s.DeltaJSON(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Epoch != 1 || len(d.Points) != 1 || len(d.Alerts) != 0 {
		t.Fatalf("second delta = %+v", d)
	}
}

func TestHealthAndTimeseriesJSONShapes(t *testing.T) {
	s := mustStore(t, Options{Rules: DefaultRules()})
	se := s.Series("gateway.retransmits")
	se.Append(0, 20) // breaches retx-storm immediately
	s.EndEpoch(0)

	var doc struct {
		Epoch   int     `json:"epoch"`
		Sealed  bool    `json:"sealed"`
		Firing  int     `json:"firing"`
		Active  []Alert `json:"active"`
		Journal []Alert `json:"journal"`
	}
	if err := json.Unmarshal(s.HealthJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Sealed || doc.Firing != 1 || len(doc.Active) != 1 || len(doc.Journal) != 1 {
		t.Fatalf("health doc = %+v", doc)
	}
	if doc.Active[0].ID != doc.Journal[0].ID {
		t.Errorf("active ID %s != journal ID %s", doc.Active[0].ID, doc.Journal[0].ID)
	}

	var list struct {
		Series []struct {
			Name   string `json:"name"`
			Points uint64 `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(s.TimeseriesJSON("", 0), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Series) != 1 || list.Series[0].Name != "gateway.retransmits" || list.Series[0].Points != 1 {
		t.Fatalf("series list = %+v", list)
	}

	if s.TimeseriesJSON("nope", 0) != nil {
		t.Error("unknown series did not return nil")
	}
	if s.TimeseriesJSON("gateway.retransmits", 99) != nil {
		t.Error("out-of-range tier did not return nil")
	}
	var sd struct {
		Tier int `json:"tier"`
		Bins []struct {
			Mean float64 `json:"mean"`
		} `json:"bins"`
	}
	if err := json.Unmarshal(s.TimeseriesJSON("gateway.retransmits", 0), &sd); err != nil {
		t.Fatal(err)
	}
	if len(sd.Bins) != 1 || sd.Bins[0].Mean != 20 {
		t.Fatalf("series doc = %+v", sd)
	}
}

// TestAppendZeroAlloc pins the obs-idiom budget: appends, exemplar
// appends, and nil-handle no-ops allocate nothing once the pending
// buffer has been sized by a first epoch.
func TestAppendZeroAlloc(t *testing.T) {
	s := mustStore(t, Options{})
	se := s.Series("x")
	// Warm the pending-delta buffer to its steady-state capacity.
	for i := 0; i < 4; i++ {
		se.Append(0, 1)
		se.AppendTrace(0, 1, 7)
	}
	s.EndEpoch(0)
	epoch := 1
	if got := testing.AllocsPerRun(1000, func() {
		se.Append(epoch, 0.5)
		se.AppendTrace(epoch, 0.5, 0xdead)
	}); got != 0 {
		t.Errorf("append allocates %.1f allocs/op, want 0", got)
	}
	var nilSe *Series
	if got := testing.AllocsPerRun(1000, func() {
		nilSe.Append(0, 1)
	}); got != 0 {
		t.Errorf("nil append allocates %.1f allocs/op, want 0", got)
	}
}

// TestSealZeroAllocSteadyState pins EndEpoch: once rule targets are
// discovered and the delta buffers sized, sealing an epoch with no
// alert transitions allocates nothing.
func TestSealZeroAllocSteadyState(t *testing.T) {
	s := mustStore(t, Options{Rules: DefaultRules()})
	a := s.Series("channel.0.prr")
	b := s.Series("gateway.delivery_ratio")
	epoch := 0
	step := func() {
		a.Append(epoch, 1)
		b.Append(epoch, 1)
		s.EndEpoch(epoch)
		epoch++
	}
	for i := 0; i < 10; i++ { // warmup: discovery + buffer sizing
		step()
	}
	if got := testing.AllocsPerRun(100, step); got != 0 {
		t.Errorf("steady-state seal allocates %.1f allocs/op, want 0", got)
	}
}

// TestDeterministicReplay: the same append sequence yields byte-equal
// JSON planes — store state is a pure function of its inputs.
func TestDeterministicReplay(t *testing.T) {
	run := func() (health, ts, delta []byte) {
		s := mustStore(t, Options{Rules: DefaultRules()})
		prr := s.Series("channel.0.prr")
		ratio := s.Series("gateway.delivery_ratio")
		// Run past rawCap epochs so the raw ring wraps.
		for e := 0; e < rawCap+40; e++ {
			v := 1.0
			if e >= 10 && e < 20 {
				v = 0.2
			}
			prr.AppendTrace(e, v, uint64(e)*0x9e3779b97f4a7c15+1)
			ratio.Append(e, 0.9+v/10)
			s.EndEpoch(e)
		}
		return s.HealthJSON(), s.TimeseriesJSON("channel.0.prr", 1), s.DeltaJSON()
	}
	h1, t1, d1 := run()
	h2, t2, d2 := run()
	if !bytes.Equal(h1, h2) || !bytes.Equal(t1, t2) || !bytes.Equal(d1, d2) {
		t.Error("replay diverged: store state is not a pure function of appends")
	}
	// And the jam window must actually have fired prr-degraded.
	if !bytes.Contains(h1, []byte(`"prr-degraded"`)) || !bytes.Contains(h1, []byte(`"firing"`)) {
		t.Errorf("prr-degraded never fired in the replay scenario: %s", h1)
	}
}
