package stream

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"saiyan/internal/core"
	"saiyan/internal/dsp"
	"saiyan/internal/pipeline"
	"saiyan/internal/ring"
	"saiyan/internal/sim"
)

// coldConfigs counts the configs handed out by coldConfig.
var coldConfigs atomic.Int64

// coldConfig returns the test segmenter config with a ThresholdGapDB no
// other lookup has used, so both the core.Prewarmed entry and the hunt
// calibration it keys are cold however often and in whatever order the
// tests run.
func coldConfig(mode core.Mode, dp core.Datapath) Config {
	_, scfg := testConfigs()
	scfg.Demod.Mode, scfg.Demod.Datapath = mode, dp
	scfg.Demod.ThresholdGapDB = 5 + float64(coldConfigs.Add(1))/1024
	return scfg
}

// referenceHunt builds the hunt demodulator the way NewSegmenter did
// before the memo: a fresh demodulator, calibrated at the hunt RSS.
func referenceHunt(t *testing.T, cfg Config) *core.Demodulator {
	t.Helper()
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.New(cfg.Demod)
	if err != nil {
		t.Fatal(err)
	}
	d.Calibrate(cfg.HuntRSSDBm, dsp.NewRand(cfg.Seed^0x73656d656e746572, 0))
	return d
}

// pushAll delivers chunks to seg and flushes it.
func pushAll(t *testing.T, seg *Segmenter, chunks []sim.Chunk) {
	t.Helper()
	for _, c := range chunks {
		if err := seg.Push(c.Env, c.EnvC); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmenterMemoMatchesCalibrate holds the memoized construction to the
// one it replaced: a segmenter built on cold memos, one built on warm
// memos, and one whose hunt demodulator is a fresh core.New plus
// Calibrate emit the same windows, Start and every sample included, in
// ModeFull and ModeVanilla on both datapaths.
func TestSegmenterMemoMatchesCalibrate(t *testing.T) {
	capture := testCapture(t, 3, 4, sim.TimelineConfig{OverlapEvery: 5})
	chunks := capture.Chunks(113)
	for _, mode := range []core.Mode{core.ModeFull, core.ModeVanilla} {
		for _, dp := range []core.Datapath{core.DatapathFloat, core.DatapathFixed} {
			label := mode.String() + "/" + dp.String()
			cfg := coldConfig(mode, dp)
			cfg.PayloadSymbols = capture.PayloadSymbols
			var runs [3][]Window
			for i := range runs {
				seg, err := NewSegmenter(cfg, func(w Window) error {
					runs[i] = append(runs[i], w)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if i == 2 {
					ref := referenceHunt(t, cfg)
					cal := ref.Calibration()
					if seg.d.Calibration() != cal || seg.gate != cal.Baseline+4*cal.NoiseSigma {
						t.Fatalf("%s: memoized hunt calibration %+v (gate %v), Calibrate gives %+v",
							label, seg.d.Calibration(), seg.gate, cal)
					}
					seg.d = ref
				}
				pushAll(t, seg, chunks)
			}
			if mode == core.ModeFull && len(runs[2]) < len(capture.Events)/2 {
				t.Fatalf("%s: %d windows for %d frames", label, len(runs[2]), len(capture.Events))
			}
			if d := diffWindows(runs[2], runs[0]); d != "" {
				t.Errorf("%s: cold memo: %s", label, d)
			}
			if d := diffWindows(runs[2], runs[1]); d != "" {
				t.Errorf("%s: warm memo: %s", label, d)
			}
		}
	}
}

// TestHuntMemoKeyExact builds segmenters that differ from a first one in
// hunt RSS, in seed, or in both: each must install the calibration a fresh
// Calibrate makes for its own config, never a neighbour's.
func TestHuntMemoKeyExact(t *testing.T) {
	base := coldConfig(core.ModeVanilla, core.DatapathFloat)
	for _, v := range []struct {
		rss  float64
		seed uint64
	}{{-60, 0}, {-60.5, 0}, {-60, 1}, {-60.5, 1}, {-60, 0}} {
		cfg := base
		cfg.HuntRSSDBm, cfg.Seed = v.rss, base.Seed+v.seed
		seg, err := NewSegmenter(cfg, func(Window) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if got, want := seg.d.Calibration(), referenceHunt(t, cfg).Calibration(); got != want {
			t.Errorf("hunt RSS %v, seed %d: installed %+v, want %+v", cfg.HuntRSSDBm, cfg.Seed, got, want)
		}
	}
}

// TestConcurrentPipelinesShareMemo runs two stream demodulations at once
// against one cold memo entry, so both segmenters and every pipeline
// worker look it up concurrently; under -race this checks the memos'
// locking and that clones only read the shared master. Both must count
// exactly what a serial run counts.
func TestConcurrentPipelinesShareMemo(t *testing.T) {
	capture := testCapture(t, 3, 3, sim.TimelineConfig{})
	pcfg, _ := testConfigs()
	pcfg.Workers = 2
	scfg := coldConfig(core.ModeFull, core.DatapathFloat)
	pcfg.Demod = scfg.Demod
	var stats [2]Stats
	var wg sync.WaitGroup
	for i := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := Demodulate(context.Background(), pcfg, scfg, capture, 128)
			if err != nil {
				t.Error(err)
			}
			stats[i] = st
		}()
	}
	wg.Wait()
	serial, err := Demodulate(context.Background(), pcfg, scfg, capture, 128)
	if err != nil {
		t.Fatal(err)
	}
	if serial.FramesCorrect == 0 {
		t.Fatalf("serial run decoded nothing: %+v", serial)
	}
	for i, st := range stats {
		if !statsEqual(serial, st) {
			t.Errorf("concurrent run %d: %+v, serial run %+v", i, st, serial)
		}
	}
}

// TestHuntMemoFootprint fills a memo of the segmenter's key and value
// types past its cap and bounds the heap it retains per entry.
func TestHuntMemoFootprint(t *testing.T) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	memo := ring.NewMemo[huntKey, core.Calibration](maxHunts)
	for i := range maxHunts + maxHunts/4 {
		k := huntKey{demod: 1, rss: math.Float64bits(-60 - float64(i)/8), seed: uint64(i)}
		memo.Get(k, func() core.Calibration { return core.Calibration{Amax: float64(i)} })
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	perEntry := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / maxHunts
	runtime.KeepAlive(memo)
	t.Logf("hunt memo: %.0f B retained per entry at %d entries", perEntry, maxHunts)
	if perEntry >= 256 {
		t.Errorf("hunt memo retains %.0f B per entry, want under 256", perEntry)
	}
}

// TestSourceQueueReused drains a source window by window: each refill of
// the queue reuses one backing array, and every job handed out is cleared
// from it, so the queue pins no window buffer.
func TestSourceQueueReused(t *testing.T) {
	capture := testCapture(t, 3, 4, sim.TimelineConfig{})
	_, scfg := testConfigs()
	src, err := NewSource(scfg, capture, 128)
	if err != nil {
		t.Fatal(err)
	}
	var backing *pipeline.Job
	grown, n := 0, 0
	for {
		j, err := src.Next()
		if err != nil {
			break
		}
		if j.Env == nil || j.Release == nil {
			t.Fatalf("job %d carries no window", n)
		}
		n++
		for i, q := range src.queue[:src.head] {
			if q.Env != nil || q.EnvC != nil || q.Release != nil || q.Want != nil {
				t.Fatalf("after job %d: popped queue slot %d still holds its job", n, i)
			}
		}
		b := &src.queue[:cap(src.queue)][0]
		if backing != nil && b != backing && cap(src.queue) <= grown {
			t.Fatalf("after job %d: queue moved to a new backing array without growing", n)
		}
		backing, grown = b, cap(src.queue)
	}
	if n != src.Windows() || n == 0 {
		t.Fatalf("%d jobs for %d windows", n, src.Windows())
	}
}
