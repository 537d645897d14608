package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"saiyan"
)

// tiny shrinks a workload to test scale: 2 tags x 2 frames for the
// capture workloads; 2 tags sending 1 frame an epoch for the service.
func tiny(w workload) workload {
	switch w := w.(type) {
	case captureSpec:
		w.Tags, w.FramesPerTag = 2, 2
		return w
	case serviceSpec:
		w.Tags, w.FramesPerTag = 2, 1
		return w
	}
	panic("unknown workload type")
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the program: the
// same workloads, and the same metric names and units in the same order.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, program has %d", names, len(workloads))
	}
	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: better %q bound %g", m.Name, m.Better, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer metric %s: better %q", m.Name, m.Better)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v != program %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v != program %v", layer, perLayer)
	}
}

// TestWorkloadsAtTinyScale runs every workload, traced, on the default
// and the held-out seed: every check must pass and every metric must be
// reported once with a finite value; end-to-end values must be positive.
func TestWorkloadsAtTinyScale(t *testing.T) {
	for name, w := range workloads {
		for _, seed := range []uint64{7, 1009} {
			rep, err := tiny(w).run(runOpts{seed: seed, minOps: 3, traced: true})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if len(rep.problems) > 0 {
				t.Errorf("%s seed %d: checks failed: %v", name, seed, rep.problems)
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("%s seed %d: attempted %d failed %d", name, seed, rep.attempted, rep.failed)
			}
			for _, set := range []struct {
				defs   []metricDef
				values map[string]float64
			}{{endToEnd, rep.e2e}, {perLayer, rep.layer}} {
				line, err := resultLine(rep, set.defs, set.values)
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				var out struct {
					Correct bool
					Metrics map[string]struct{ Value float64 }
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatal(err)
				}
				if !out.Correct || len(out.Metrics) != len(set.defs) {
					t.Errorf("%s seed %d: correct=%v with %d of %d metrics", name, seed, out.Correct, len(out.Metrics), len(set.defs))
				}
			}
			for _, d := range endToEnd {
				if v := rep.e2e[d.name]; !(v > 0) {
					t.Errorf("%s seed %d: %s = %v, want > 0", name, seed, d.name, v)
				}
			}
		}
	}
}

// TestHeldOutSeedChangesSchedule checks that the two seeds give different
// inputs, not the same capture twice.
func TestHeldOutSeedChangesSchedule(t *testing.T) {
	c := tiny(workloads["capture"]).(captureSpec)
	a, err := c.render(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.render(1009)
	if err != nil {
		t.Fatal(err)
	}
	if sameCapture(a, b) {
		t.Error("seeds 7 and 1009 render the same capture")
	}
	if slices.EqualFunc(a.Events, b.Events, func(x, y saiyan.StreamFrame) bool {
		return x.StartSamp == y.StartSamp && slices.Equal(x.Want, y.Want)
	}) {
		t.Error("seeds 7 and 1009 schedule the same events")
	}
}

// TestPerturbedPassFailsCheck checks that a pass whose counters differ
// from the reference in any way fails, and that the wall clock and worker
// count are ignored.
func TestPerturbedPassFailsCheck(t *testing.T) {
	ref := saiyan.StreamStats{FramesScheduled: 4, WindowsEmitted: 4, WindowsMatched: 4, SamplesIn: 1000}
	ref.Workers, ref.FramesIn, ref.FramesOut, ref.FramesCorrect, ref.Symbols = 1, 4, 4, 4, 64
	same := ref
	same.Workers, same.Elapsed = 2, 12345
	if err := sameCounters(ref, same); err != nil {
		t.Errorf("wall clock and worker count must not matter: %v", err)
	}
	for _, perturb := range []func(*saiyan.StreamStats){
		func(s *saiyan.StreamStats) { s.FramesCorrect-- },
		func(s *saiyan.StreamStats) { s.SymbolErrs++ },
		func(s *saiyan.StreamStats) { s.WindowsEmitted++ },
		func(s *saiyan.StreamStats) { s.FxpCycles++ },
	} {
		got := ref
		perturb(&got)
		if sameCounters(ref, got) == nil {
			t.Errorf("perturbed counters %+v passed the check", got)
		}
	}

	rep := &report{attempted: 8, e2e: map[string]float64{}}
	for _, d := range endToEnd {
		rep.e2e[d.name] = 1
	}
	rep.problem("pass 2: counters differ")
	line, err := resultLine(rep, endToEnd, rep.e2e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, `"correct":false`) {
		t.Errorf("a failed check printed %s", line)
	}
}

// TestSpans checks self-time accounting and the nesting check.
func TestSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", StartNs: 0, EndNs: 100, Mallocs: 10},
		{ID: 2, Parent: 1, Name: "stream.segment", StartNs: 10, EndNs: 40, Mallocs: 3},
		{ID: 3, Parent: 1, Name: "core.decode", StartNs: 50, EndNs: 60},
		{ID: 4, Parent: 1, Name: "core.decode", StartNs: 60, EndNs: 80},
	}
	agg := selfTimes(spans)
	if got := agg["pass"]; got.selfNs != 40 || got.totalNs != 100 || got.count != 1 {
		t.Errorf("pass: %+v", got)
	}
	if got := agg["core.decode"]; got.selfNs != 30 || got.count != 2 {
		t.Errorf("core.decode: %+v", got)
	}
	if err := checkNesting(spans); err != nil {
		t.Error(err)
	}
	spans[3].EndNs = 120
	if checkNesting(spans) == nil {
		t.Error("a child ending after its parent passed the nesting check")
	}

	tr := newTracer(2)
	root := tr.begin("pass", 0)
	tr.end(tr.begin("stream.setup", root))
	tr.end(root)
	if err := checkNesting(tr.spans); err != nil || len(tr.spans) != 2 {
		t.Errorf("recorded spans %+v: %v", tr.spans, err)
	}
	var none *tracer
	none.end(none.begin("pass", 0)) // a nil tracer records nothing
}

// TestRunRejectsBadFlags checks argument validation.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "-1"},
		{"-seconds", "NaN"},
		{"-spans", "x.json"},
		{"extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if p := percentile(xs, 50); p != 3 {
		t.Errorf("p50 = %v", p)
	}
	if p := percentile(xs, 95); p != 5 {
		t.Errorf("p95 = %v", p)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}
