package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"saiyan/internal/dsp"
	"saiyan/internal/lora"
)

// cloneTestFrames builds deterministic downlink frames for the clone
// isolation tests.
func cloneTestFrames(t *testing.T, p lora.Params, n int) []*lora.Frame {
	t.Helper()
	rng := dsp.NewRand(11, 13)
	frames := make([]*lora.Frame, n)
	for i := range frames {
		payload := make([]int, lora.DefaultPayloadSymbols)
		for j := range payload {
			payload[j] = rng.IntN(p.AlphabetSize())
		}
		f, err := lora.NewFrame(p, payload)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	return frames
}

// processAll runs every frame through d with per-frame RNG shards,
// returning a decode fingerprint.
func processAll(t *testing.T, d *Demodulator, frames []*lora.Frame, rssDBm float64) []string {
	t.Helper()
	sc := &FrameScratch{}
	out := make([]string, len(frames))
	for i, f := range frames {
		syms, detected, err := d.ProcessFrameScratch(f, rssDBm, dsp.NewRand(21, uint64(i)), sc)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fmt.Sprintf("%v:%v", detected, syms)
	}
	return out
}

// TestCloneConcurrentIsolation is the contract the pipeline's worker pool
// relies on: clones of one calibrated master share no mutable scratch
// state, so many clones demodulating concurrently (each with a private
// FrameScratch) decode exactly what the master decodes serially. Run under
// -race this also proves the shared calibration artifacts (correlation and
// detection templates) are only ever read.
func TestCloneConcurrentIsolation(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeFull} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mode = mode
			master, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const rss = -70.0
			master.Calibrate(rss, dsp.NewRand(3, 5))
			frames := cloneTestFrames(t, cfg.Params, 6)
			want := processAll(t, master.Clone(), frames, rss)

			const nClones = 8
			got := make([][]string, nClones)
			var wg sync.WaitGroup
			wg.Add(nClones)
			for c := 0; c < nClones; c++ {
				// Clone concurrently too: Clone must never mutate the
				// master it copies from.
				go func(c int) {
					defer wg.Done()
					got[c] = processAll(t, master.Clone(), frames, rss)
				}(c)
			}
			wg.Wait()
			for c := range got {
				if !reflect.DeepEqual(got[c], want) {
					t.Errorf("clone %d decoded a different stream:\n got %v\nwant %v", c, got[c], want)
				}
			}

			// The master is untouched: same thresholds, same decode.
			if again := processAll(t, master, frames, rss); !reflect.DeepEqual(again, want) {
				t.Errorf("master diverged after concurrent clone use:\n got %v\nwant %v", again, want)
			}
		})
	}
}

// TestCloneCarriesCalibration verifies a clone inherits the calibrated
// state without re-calibrating.
func TestCloneCarriesCalibration(t *testing.T) {
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Clone().calibrated {
		t.Error("clone of an uncalibrated demodulator claims calibration")
	}
	d.Calibrate(-65, dsp.NewRand(1, 2))
	c := d.Clone()
	if !c.calibrated {
		t.Fatal("clone lost calibration")
	}
	if c.Thresholds() != d.Thresholds() {
		t.Errorf("clone thresholds %+v differ from master %+v", c.Thresholds(), d.Thresholds())
	}
}
