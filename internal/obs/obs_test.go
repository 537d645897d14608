package obs

import (
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("saiyan_test_total", "test counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("saiyan_test_total", "dup"); again != c {
		t.Fatal("re-registration did not return the existing counter")
	}

	g := r.Gauge("saiyan_test_depth", "test gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	g.SetMax(10)
	g.SetMax(4) // below the mark: must not lower it
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge after SetMax = %g, want 10", got)
	}
}

func TestNilHandlesNoOp(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	c.Inc()
	c.Add(7)
	g.Set(1)
	g.SetMax(2)
	h.ObserveShardTrace(3, 1, 0)
	h.ObserveSince(0, time.Now())
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if r.Counter("x", "") != nil || r.Gauge("y", "") != nil || r.Histogram("z", "", HistogramOpts{}) != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry must snapshot empty")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry exposition: %v", err)
	}
}

// TestHistogramShardMerge drives the sharded histogram with a deterministic
// observation stream and checks the merged view against a sequential
// single-shard reference.
func TestHistogramShardMerge(t *testing.T) {
	const shards = 8
	opts := HistogramOpts{Min: 1e-6, Growth: 2, Buckets: 20, Shards: shards}
	sharded := NewHistogram(opts)
	ref := NewHistogram(HistogramOpts{Min: 1e-6, Growth: 2, Buckets: 20, Shards: 1})

	rng := rand.New(rand.NewPCG(1, 2))
	obs := make([]float64, 10000)
	for i := range obs {
		obs[i] = math.Exp(rng.Float64()*20 - 14) // spans well past both grid ends
	}
	for i, v := range obs {
		sharded.ObserveShardTrace(i%shards, v, 0)
		ref.ObserveShardTrace(0, v, 0)
	}

	gotCounts, gotN, gotSum := sharded.merge()
	wantCounts, wantN, wantSum := ref.merge()
	if gotN != wantN {
		t.Fatalf("merged count = %d, want %d", gotN, wantN)
	}
	if math.Abs(gotSum-wantSum) > 1e-9*math.Abs(wantSum) {
		t.Fatalf("merged sum = %g, want %g", gotSum, wantSum)
	}
	for i := range wantCounts {
		if gotCounts[i] != wantCounts[i] {
			t.Fatalf("bucket %d = %d, want %d", i, gotCounts[i], wantCounts[i])
		}
	}
	var inBuckets uint64
	for _, c := range gotCounts {
		inBuckets += c
	}
	if inBuckets != gotN {
		t.Fatalf("bucket counts sum to %d, count says %d", inBuckets, gotN)
	}
}

// TestConcurrentWrites hammers one counter, one gauge, and one sharded
// histogram from many goroutines; run under -race this is the data-race
// proof, and the totals prove no increment was lost.
func TestConcurrentWrites(t *testing.T) {
	const workers = 8
	const perWorker = 5000
	r := NewRegistry()
	c := r.Counter("saiyan_test_hits_total", "concurrent counter")
	g := r.Gauge("saiyan_test_hwm", "concurrent high-water mark")
	h := r.Histogram("saiyan_test_lat_seconds", "concurrent histogram",
		HistogramOpts{Shards: workers})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(float64(w*perWorker + i))
				h.ObserveShardTrace(w, float64(i)*1e-6, 0)
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got, want := g.Value(), float64(workers*perWorker-1); got != want {
		t.Fatalf("gauge hwm = %g, want %g", got, want)
	}
	if _, got, _ := h.merge(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestZeroAllocHotPath pins the zero-alloc contract of every write-side
// primitive the decode hot path uses.
func TestZeroAllocHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("saiyan_test_total", "c")
	g := r.Gauge("saiyan_test_g", "g")
	h := r.Histogram("saiyan_test_h", "h", HistogramOpts{Shards: 4})
	start := time.Now()
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(7)
		g.SetMax(9)
		h.ObserveShardTrace(2, 3e-5, 0)
		h.ObserveSince(1, start)
	}); n != 0 {
		t.Fatalf("hot-path write allocates %.1f times per op, want 0", n)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("saiyan_frames_total", "frames processed").Add(12)
	r.Counter(`saiyan_cmds_total{op="set_rate",outcome="delivered"}`, "commands by op").Add(3)
	r.Counter(`saiyan_cmds_total{op="set_rate",outcome="missed"}`, "commands by op").Add(1)
	r.Gauge("saiyan_queue_depth", "queue depth").Set(2)
	h := r.Histogram("saiyan_decode_seconds", "decode latency",
		HistogramOpts{Min: 0.001, Growth: 10, Buckets: 3, Shards: 2})
	h.ObserveShardTrace(0, 0.0005, 0) // first bucket
	h.ObserveShardTrace(1, 0.05, 0)   // third bucket
	h.ObserveShardTrace(0, 5, 0)      // +Inf overflow

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# HELP saiyan_frames_total frames processed",
		"# TYPE saiyan_frames_total counter",
		"saiyan_frames_total 12",
		`saiyan_cmds_total{op="set_rate",outcome="delivered"} 3`,
		`saiyan_cmds_total{op="set_rate",outcome="missed"} 1`,
		"# TYPE saiyan_queue_depth gauge",
		"saiyan_queue_depth 2",
		"# TYPE saiyan_decode_seconds histogram",
		`saiyan_decode_seconds_bucket{le="0.001"} 1`,
		`saiyan_decode_seconds_bucket{le="0.01"} 1`,
		`saiyan_decode_seconds_bucket{le="0.1"} 2`,
		`saiyan_decode_seconds_bucket{le="+Inf"} 3`,
		"saiyan_decode_seconds_count 3",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition misses %q:\n%s", want, text)
		}
	}
	// The two cmds_total label variants share one HELP/TYPE header.
	if n := strings.Count(text, "# TYPE saiyan_cmds_total counter"); n != 1 {
		t.Errorf("cmds_total TYPE header appears %d times, want 1:\n%s", n, text)
	}
	// Every non-comment line is "name{labels} value" — the format CI's
	// smoke check greps for.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("saiyan_a_total", "a").Add(5)
	r.Gauge("saiyan_b", "b").Set(1.5)
	r.Histogram("saiyan_c_seconds", "c", HistogramOpts{Buckets: 4}).ObserveShardTrace(0, 2e-6, 0)

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d series, want 3", len(snap))
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back []MetricSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[0].Name != "saiyan_a_total" || back[0].Value != 5 {
		t.Fatalf("snapshot did not survive the JSON round trip: %+v", back)
	}
	hist := back[2]
	if hist.Kind != KindHistogram || hist.Count != 1 || len(hist.Counts) != len(hist.Bounds)+1 {
		t.Fatalf("histogram snapshot malformed: %+v", hist)
	}
	if got := hist.Mean(); got != hist.Sum {
		t.Fatalf("mean of single observation = %g, want %g", got, hist.Sum)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("saiyan_up_total", "up").Inc()
	var snapshot []byte
	h := NewHandler(HandlerConfig{
		Registry: r,
		Snapshot: func() []byte { return snapshot },
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s read: %v", path, err)
		}
		return resp.StatusCode, strings.TrimSpace(string(body)), resp.Header.Get("Content-Type")
	}

	if code, body, ctype := get("/metrics"); code != 200 ||
		!strings.Contains(body, "saiyan_up_total 1") ||
		!strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("/metrics: code=%d ctype=%q body=%q", code, ctype, body)
	}
	if code, body, _ := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: code=%d body=%q", code, body)
	}
	// /snapshot before the first cache fill is a 503, then serves JSON.
	if code, _, _ := get("/snapshot"); code != 503 {
		t.Fatalf("/snapshot without cache: code=%d, want 503", code)
	}
	snapshot = []byte(`{"epochs":3}`)
	if code, body, ctype := get("/snapshot"); code != 200 || body != `{"epochs":3}` ||
		!strings.Contains(ctype, "application/json") {
		t.Fatalf("/snapshot: code=%d ctype=%q body=%q", code, ctype, body)
	}
	if code, body, _ := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline: code=%d", code)
	}
}

// TestLabelValueEscaping pins the text-format 0.0.4 escaping rules for
// inline label values: backslash, double-quote, and newline in a value
// must come out escaped on the exposition line, while the name under
// which the series was registered keeps working for lookup.
func TestLabelValueEscaping(t *testing.T) {
	cases := []struct {
		name string // registration name (raw label values)
		want string // rendered sample line, sans value
	}{
		{`saiyan_esc_a_total{path="C:\temp"}`, `saiyan_esc_a_total{path="C:\\temp"}`},
		{`saiyan_esc_b_total{q="say "hi""}`, `saiyan_esc_b_total{q="say \"hi\""}`},
		{"saiyan_esc_c_total{msg=\"line1\nline2\"}", `saiyan_esc_c_total{msg="line1\nline2"}`},
		{`saiyan_esc_d_total{a="x\y",b="p,q"}`, `saiyan_esc_d_total{a="x\\y",b="p,q"}`},
		// Values that need no escaping pass through untouched.
		{`saiyan_esc_e_total{op="set_rate"}`, `saiyan_esc_e_total{op="set_rate"}`},
		// An empty inline label set renders as a bare name, no braces.
		{`saiyan_esc_f_total{}`, `saiyan_esc_f_total`},
		// Malformed label text keeps the historical raw passthrough.
		{`saiyan_esc_g_total{notapair}`, `saiyan_esc_g_total{notapair}`},
	}
	r := NewRegistry()
	for _, c := range cases {
		r.Counter(c.name, "escaping fixture").Inc()
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, c := range cases {
		if !strings.Contains(text, c.want+" 1\n") {
			t.Errorf("registering %q: exposition misses %q:\n%s", c.name, c.want, text)
		}
	}
	// A newline inside a value must never split a sample across lines:
	// every non-comment line still parses as "series value" (label
	// values may contain spaces, so match the line shape, not fields).
	sampleLine := regexp.MustCompile(`^[A-Za-z_:][A-Za-z0-9_:]*(\{.*\})? [^ ]+$`)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}
	// Re-registering under the same raw name must hit the same handle,
	// not mint an escaped twin.
	r.Counter(`saiyan_esc_a_total{path="C:\temp"}`, "escaping fixture").Inc()
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), `saiyan_esc_a_total{path="C:\\temp"} 2`+"\n") {
		t.Errorf("second registration did not reuse the escaped series:\n%s", b2.String())
	}
}

// TestExpositionNonFiniteGauges pins how non-finite gauge values render:
// single tokens (NaN, +Inf, -Inf) that keep every sample line two
// whitespace-separated fields, the shape CI's smoke check greps for.
func TestExpositionNonFiniteGauges(t *testing.T) {
	r := NewRegistry()
	r.Gauge("saiyan_nan_gauge", "not a number").Set(math.NaN())
	r.Gauge("saiyan_posinf_gauge", "positive infinity").Set(math.Inf(1))
	r.Gauge("saiyan_neginf_gauge", "negative infinity").Set(math.Inf(-1))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"saiyan_nan_gauge NaN",
		"saiyan_posinf_gauge +Inf",
		"saiyan_neginf_gauge -Inf",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition misses %q:\n%s", want, text)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestHistogramExemplars pins the exemplar contract: ObserveShardTrace
// stamps the landing bucket's exemplar with the last non-zero trace ID,
// the snapshot renders them as 16-hex-digit strings (omitted entirely
// when no bucket has one), and the text exposition never mentions them.
func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("saiyan_exemplar_seconds", "latency with exemplars",
		HistogramOpts{Min: 0.001, Growth: 10, Buckets: 3, Shards: 2})
	plain := r.Histogram("saiyan_plain_seconds", "latency without exemplars",
		HistogramOpts{Min: 0.001, Growth: 10, Buckets: 3, Shards: 2})

	h.ObserveShardTrace(0, 0.0005, 0xdeadbeef) // first bucket
	h.ObserveShardTrace(1, 0.0004, 0x1234)     // same bucket: last write wins
	h.ObserveShardTrace(0, 5, 0xcafe)          // +Inf overflow bucket
	h.ObserveShardTrace(1, 0.05, 0)            // zero trace: no stamp
	plain.ObserveShardTrace(0, 0.01, 0)        // exemplar-free twin

	byName := map[string]MetricSnapshot{}
	for _, m := range r.Snapshot() {
		byName[m.Name] = m
	}
	got := byName["saiyan_exemplar_seconds"].Exemplars
	want := []string{"0000000000001234", "", "", "000000000000cafe"}
	if len(got) != len(want) {
		t.Fatalf("exemplars = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("exemplars[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if ex := byName["saiyan_plain_seconds"].Exemplars; ex != nil {
		t.Errorf("exemplar-free histogram rendered exemplars %q, want none", ex)
	}
	// Exemplars are JSON-only: the text exposition keeps the plain
	// 0.0.4 format with no trailing exemplar annotations.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if text := b.String(); strings.Contains(text, "1234") && strings.Contains(text, "cafe") {
		t.Errorf("text exposition leaked exemplar trace IDs:\n%s", text)
	}
	// And the snapshot round-trips them through JSON.
	raw, err := json.Marshal(byName["saiyan_exemplar_seconds"])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"exemplars"`) {
		t.Errorf("marshaled snapshot misses exemplars key: %s", raw)
	}
	if raw2, _ := json.Marshal(byName["saiyan_plain_seconds"]); strings.Contains(string(raw2), "exemplars") {
		t.Errorf("exemplar-free snapshot should omit the key: %s", raw2)
	}
}
