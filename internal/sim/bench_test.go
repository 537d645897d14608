package sim

import (
	"runtime"
	"testing"

	"saiyan/internal/core"
)

// BenchmarkRenderTimeline times the render layer, stage sim.render in the
// repository benchmark's stage taxonomy (bench/README.md): one continuous
// ModeFull capture of 16 tags x 8 frames composed and pushed through the
// analog chain per iteration. It reports ns/frame and allocs/frame, the
// units sim.render_ms_per_frame and sim.render_allocs_per_frame use.
func BenchmarkRenderTimeline(b *testing.B) {
	ts := testTagSet(b, 16)
	cfg := core.DefaultConfig()
	tl := TimelineConfig{FramesPerTag: 8}
	frames := len(ts.Tags) * tl.FramesPerTag
	b.Run("sim.render", func(b *testing.B) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for range b.N {
			if _, err := ts.RenderTimeline(cfg, tl); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		n := float64(b.N * frames)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/frame")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/frame")
	})
}
