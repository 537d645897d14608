// Command bench is the repository benchmark. One invocation runs one
// seeded workload: it sets the workload up, times it for a fixed wall-clock
// budget, checks every output against a reference, and prints the
// workload's metrics. bench/run.sh builds it from source and runs it from
// the repository root:
//
//	bash bench/run.sh --workload capture --seed 7 --seconds 10 --trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it also
// runs the traced passes and reports the per-layer metrics instead. The
// last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":V,"unit":"U"}}}
//
// A failed correctness check prints correct=false and exits 1.
// bench/README.md documents the workloads, metrics and trace format.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"saiyan"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the receiver sees; every workload reports
// all of them with -trace 0. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frames_per_s", "frames/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"recovery", "ratio"},
	{"allocs_per_frame", "allocs"},
	{"heap_mb", "MB"},
}

// perLayer is what -trace 1 reports, one group per module. A workload
// reports 0 for a layer it does not run or cannot isolate.
var perLayer = []metricDef{
	{"sim.render_ms_per_frame", "ms"},
	{"sim.render_allocs_per_frame", "allocs"},
	{"stream.setup_ms", "ms"},
	{"stream.segment_us_per_window", "us"},
	{"stream.segment_ms_per_air_s", "ms/s"},
	{"stream.segment_allocs_per_window", "allocs"},
	{"stream.window_match_ratio", "ratio"},
	{"core.prewarm_ms", "ms"},
	{"core.decode_us_per_window", "us"},
	{"core.decode_allocs_per_window", "allocs"},
	{"fxp.decode_us_per_window", "us"},
	{"fxp.decode_allocs_per_window", "allocs"},
	{"fxp.mcu_cycles_per_frame", "cycles"},
	{"pipeline.worker_busy_share", "ratio"},
	{"gateway.render_share", "ratio"},
	{"gateway.decode_ms_per_epoch", "ms"},
	{"gateway.control_ms_per_epoch", "ms"},
	{"gateway.fold_ms_per_epoch", "ms"},
	{"gateway.retransmits_per_epoch", "count"},
	{"gateway.cmd_delivery_ratio", "ratio"},
	{"server.publish_ms_per_epoch", "ms"},
	{"server.bytes_per_epoch", "B"},
	{"server.queue_hwm", "count"},
	{"server.fanout_drops", "count"},
	{"flight.dumps_per_epoch", "count"},
	{"health.alerts_fired", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// Settings shared by every workload.
const (
	workers      = 2   // decode workers: a closed loop sized to a 2-core host
	chunkSamples = 256 // capture delivery chunk, in sampler samples
	setupReps    = 5   // set-ups per run; setup_s is their median
)

// runOpts are the per-invocation settings a workload runs under.
type runOpts struct {
	seed    uint64
	warmup  time.Duration // untimed passes before the timed phase
	seconds time.Duration // timed-phase budget
	minOps  int           // floor on timed passes or epochs
	traced  bool
}

// report is one workload run's outcome. problems lists failed correctness
// checks; any problem makes the run incorrect.
type report struct {
	ops       string // what one latency sample times: "passes" or "epochs"
	opsTimed  int
	attempted int // frames scheduled over the timed phase
	failed    int // frames lost to a failed check or a fanout drop
	e2e       map[string]float64
	layer     map[string]float64
	spans     []span
	notes     []string // extra lines for the human-readable summary
	problems  []string
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload is one of the benchmark's input sets.
type workload interface {
	run(o runOpts) (*report, error)
}

// workloads maps each -workload name to its inputs. Every input derives
// from -seed; the sizes here fix the work in one pass or epoch.
var workloads = map[string]workload{
	"capture":     captureSpec{Tags: 16, FramesPerTag: 32},
	"capture-fxp": captureSpec{Tags: 16, FramesPerTag: 32, Datapath: saiyan.DatapathFixed},
	"sparse":      captureSpec{Tags: 16, FramesPerTag: 16, MinGapSymbols: 100, MaxGapSymbols: 400, OverlapEvery: 5},
	"service":     serviceSpec{Tags: 8, FramesPerTag: 2, Warmup: 10},
}

func main() {
	// A hung run still ends, with an error, well inside a runner's
	// 180-second per-run limit.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded 170 s")
		os.Exit(1)
	})
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	watchdog.Stop()
	os.Exit(code)
}

// run parses args, runs the workload, and prints its metrics; it returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "capture", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 7, "input seed (7 is the default, 1009 the held-out seed)")
	seconds := fs.Float64("seconds", 10, "timed-phase length in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
	spansOut := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	case !ok:
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "bench: -trace %d, want 0 or 1\n", *trace)
		return 2
	case !(*seconds >= 0 && *seconds <= 120):
		fmt.Fprintf(stderr, "bench: -seconds %g outside [0, 120]\n", *seconds)
		return 2
	case *spansOut != "" && *trace != 1:
		fmt.Fprintln(stderr, "bench: -spans needs -trace 1")
		return 2
	}

	rep, err := w.run(runOpts{
		seed:    *seed,
		warmup:  1500 * time.Millisecond,
		seconds: time.Duration(*seconds * float64(time.Second)),
		minOps:  1,
		traced:  *trace == 1,
	})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, rep.spans); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  %d timed %s  %d frames attempted  %d failed\n",
		*name, *seed, rep.opsTimed, rep.ops, rep.attempted, rep.failed)
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	if rep.spans != nil {
		printSelfTimes(stdout, rep.spans)
	}
	defs, values := endToEnd, rep.e2e
	if *trace == 1 {
		defs, values = perLayer, rep.layer
	}
	line, err := resultLine(rep, defs, values)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "bench: check failed: %s\n", p)
	}
	fmt.Fprintln(stdout, line)
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// resultLine renders the machine-readable last line. Every metric in defs
// must be present and finite; names outside defs are a bug.
func resultLine(rep *report, defs []metricDef, values map[string]float64) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s = %v is not finite", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
	}
	for n := range values {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.name == n }) {
			return "", fmt.Errorf("metric %s is not in the metric table", n)
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, metrics})
	return string(b), err
}

// layerValues returns a per-layer map with every metric at 0, for a
// workload to fill in the layers it runs.
func layerValues() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapMB collects garbage and returns the heap in use, in megabytes.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// percentile returns the p-th percentile (0-100) of xs by the
// nearest-rank rule; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[max(rank, 1)-1]
}

// median returns the nearest-rank median of xs (sorted in place); for the
// odd sample counts used here it is the middle value.
func median(xs []float64) float64 { return percentile(xs, 50) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
