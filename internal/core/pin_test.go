package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"testing"

	"saiyan/internal/dsp"
	"saiyan/internal/lora"
	"saiyan/internal/pins"
)

// peakTrackingHash decodes 12 frames of 32 random symbols at four RSS
// levels through every peak-tracking configuration: both comparator modes,
// both datapaths, K = 1..3, and a power-of-two and a non-power-of-two
// Oversample (where the float and integer symbol windows round
// differently). Each frame hashes its mode, datapath, decoded symbols,
// detection flag and the MCU cycles it cost. It also returns how many
// frames were detected.
func peakTrackingHash(t *testing.T) (hash.Hash, int) {
	t.Helper()
	h := sha256.New()
	detectedFrames := 0
	for _, mode := range []Mode{ModeVanilla, ModeFreqShift} {
		for _, dp := range []Datapath{DatapathFloat, DatapathFixed} {
			for _, k := range []int{1, 2, 3} {
				for _, os := range []int{16, 10} {
					cfg := DefaultConfig()
					cfg.Mode = mode
					cfg.Datapath = dp
					cfg.Params.K = k
					cfg.Oversample = os
					cfg.CorrOversample = 2
					d, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					alphabet := cfg.Params.AlphabetSize()
					for _, rss := range []float64{-40, -60, -75, -85} {
						d.Calibrate(rss, dsp.NewRand(7, math.Float64bits(rss)))
						rng := dsp.NewRand(9, uint64(k*1000+os))
						for f := 0; f < 12; f++ {
							payload := make([]int, 32)
							for i := range payload {
								payload[i] = rng.IntN(alphabet)
							}
							frame, err := lora.NewFrame(cfg.Params, payload)
							if err != nil {
								t.Fatal(err)
							}
							syms, detected, err := d.ProcessFrame(frame, rss, rng)
							if err != nil {
								t.Fatal(err)
							}
							if detected {
								detectedFrames++
							}
							fmt.Fprintf(h, "%v|%v|%v|%v|%d\n", mode, dp, syms, detected, d.TakeFxpCycles())
						}
					}
				}
			}
		}
	}
	return h, detectedFrames
}

// TestPeakTrackingPinned holds the float and fixed-point peak-tracking
// decoders' output across commits. The golden trace and the gateway pin
// both decode in ModeFull, so this is the one pin that holds the
// comparator decoders (Section 2.2) byte for byte.
func TestPeakTrackingPinned(t *testing.T) {
	h, detected := peakTrackingHash(t)
	t.Logf("%d of 1152 frames detected", detected)
	pins.Check(t, "core/peak-tracking", h)
}
