package gateway

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkGateway measures closed-loop epochs per second across worker
// pool sizes and ingest channel counts: the full service path — timeline
// rendering, segmentation, window decoding, session fold, control loop.
func BenchmarkGateway(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		for _, channels := range []int{2, 4} {
			b.Run(fmt.Sprintf("workers=%d/channels=%d", workers, channels), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg := DefaultConfig()
					cfg.Seed = testSeed
					cfg.Workers = workers
					cfg.Channels = channels
					cfg.Tags = 4 * channels
					cfg.FramesPerTag = 2
					g, err := New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					reports, err := runEpochs(g, 2)
					if err != nil {
						b.Fatal(err)
					}
					var elapsed time.Duration
					for _, rep := range reports {
						elapsed += rep.Elapsed
					}
					snap := g.Snapshot()
					if snap.FramesScheduled == 0 {
						b.Fatal("benchmark scheduled no frames")
					}
					b.ReportMetric(float64(snap.FramesDelivered)/elapsed.Seconds(), "frames/s")
				}
			})
		}
	}
}
