package stream

import (
	"context"
	"runtime"
	"testing"

	"saiyan/internal/core"
	"saiyan/internal/lora"
	"saiyan/internal/pipeline"
	"saiyan/internal/radio"
	"saiyan/internal/sim"
)

// passCapture renders a capture of the repository benchmark's shape: tags
// between 20 and 100 m, framesPerTag frames each, short default gaps.
func passCapture(tb testing.TB, tags, framesPerTag int, seed uint64) *sim.Stream {
	tb.Helper()
	ts, err := sim.NewTagSet(lora.DefaultParams(), radio.DefaultLinkBudget(), tags, 20, 100, seed)
	if err != nil {
		tb.Fatal(err)
	}
	capture, err := ts.RenderTimeline(core.DefaultConfig(), sim.TimelineConfig{FramesPerTag: framesPerTag})
	if err != nil {
		tb.Fatal(err)
	}
	return capture
}

// passConfigs is one fixed-point stream pass on a 2-worker pool with the
// results discarded, in 256-sample chunks.
func passConfigs() (pipeline.Config, Config, int) {
	demod := core.DefaultConfig()
	demod.Datapath = core.DatapathFixed
	pcfg := pipeline.Config{Demod: demod, Workers: 2, Seed: 1, DiscardResults: true}
	return pcfg, Config{Demod: demod, Seed: 1}, 256
}

// TestStreamPassAllocs pins a steady-state Source -> pipeline pass with
// DiscardResults at no more than half an allocation per window, set-up
// included: window buffers come back through Job.Release, symbols decode
// into per-worker storage and Submit reuses the job slices workers hand
// back, so what a pass allocates is mostly its fixed set-up.
func TestStreamPassAllocs(t *testing.T) {
	capture := passCapture(t, 16, 32, 7)
	pcfg, scfg, chunk := passConfigs()
	var st Stats
	pass := func() {
		var err error
		if st, err = Demodulate(context.Background(), pcfg, scfg, capture, chunk); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	allocs := testing.AllocsPerRun(5, pass)
	if st.WindowsEmitted == 0 {
		t.Fatal("no windows emitted")
	}
	if perWindow := allocs / float64(st.WindowsEmitted); perWindow > 0.5 {
		t.Errorf("%.0f allocations per pass of %d windows: %.3f per window, want at most 0.5", allocs, st.WindowsEmitted, perWindow)
	}
}

// BenchmarkStreamPass runs one pass of the repository benchmark's
// capture-fxp workload (16 tags x 32 frames, seed 7) per iteration:
// segmentation on the calling goroutine, fixed-point decode on two
// workers. Besides allocs/op it reports the pass's allocations per
// window.
func BenchmarkStreamPass(b *testing.B) {
	capture := passCapture(b, 16, 32, 7)
	pcfg, scfg, chunk := passConfigs()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	windows := 0
	for b.Loop() {
		st, err := Demodulate(context.Background(), pcfg, scfg, capture, chunk)
		if err != nil {
			b.Fatal(err)
		}
		windows += st.WindowsEmitted
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(windows), "allocs/window")
}
