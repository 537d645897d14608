package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans stay in memory while the
// traced passes run and are written out only at exit (-spans FILE).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	EndNs   int64  `json:"end_ns"`
	Mallocs uint64 `json:"mallocs"` // runtime.MemStats.Mallocs delta
}

// tracer records spans on one goroutine. A nil tracer records nothing, so
// the traced and untraced replays run the same code.
type tracer struct {
	origin time.Time
	spans  []span
	ms     runtime.MemStats
}

// newTracer preallocates room for n spans, so appends do not show up in
// the spans' malloc counts.
func newTracer(n int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, n)}
}

// begin opens a span under parent (0 = root) and returns its id. The
// malloc counter is read before the clock, so reading it is not part of
// the span's time.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	runtime.ReadMemStats(&t.ms)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Mallocs: t.ms.Mallocs})
	s := &t.spans[len(t.spans)-1]
	s.StartNs = int64(time.Since(t.origin))
	return s.ID
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.origin))
	runtime.ReadMemStats(&t.ms)
	s.Mallocs = t.ms.Mallocs - s.Mallocs
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count   int
	totalNs int64 // summed span durations
	selfNs  int64 // summed durations minus the time covered by children
	mallocs uint64
}

// selfTimes aggregates spans by name. Spans come from one goroutine, so
// children never overlap and a span's self time is its duration minus
// the sum of its children's durations.
func selfTimes(spans []span) map[string]layerTime {
	child := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.count++
		lt.totalNs += s.EndNs - s.StartNs
		lt.selfNs += s.EndNs - s.StartNs - child[s.ID]
		lt.mallocs += s.Mallocs
		out[s.Name] = lt
	}
	return out
}

// checkNesting verifies that every span closed after it opened and lies
// inside its parent.
func checkNesting(spans []span) error {
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("span %d (%s) [%d, %d] escapes parent %d (%s) [%d, %d]",
				s.ID, s.Name, s.StartNs, s.EndNs, p.ID, p.Name, p.StartNs, p.EndNs)
		}
	}
	return nil
}

// printSelfTimes writes one line per span name: count, total and self
// time, and mallocs per span.
func printSelfTimes(w io.Writer, spans []span) {
	agg := selfTimes(spans)
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return agg[names[i]].selfNs > agg[names[j]].selfNs })
	fmt.Fprintf(w, "  %-16s %8s %12s %12s %14s\n", "span", "count", "total_ms", "self_ms", "mallocs/span")
	for _, n := range names {
		lt := agg[n]
		fmt.Fprintf(w, "  %-16s %8d %12.3f %12.3f %14.1f\n", n, lt.count,
			float64(lt.totalNs)/1e6, float64(lt.selfNs)/1e6, float64(lt.mallocs)/float64(lt.count))
	}
}

// writeSpans writes spans to path as one JSON array.
func writeSpans(path string, spans []span) error {
	if spans == nil {
		spans = []span{} // a workload without spans writes [], not null
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
