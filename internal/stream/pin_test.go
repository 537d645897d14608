package stream

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"testing"

	"saiyan/internal/core"
	"saiyan/internal/lora"
	"saiyan/internal/pins"
	"saiyan/internal/radio"
	"saiyan/internal/sim"
)

// TestFxpCorrelationPinned hashes the fixed-point ModeFull decode of every
// window Source yields on the stream pin's two captures at K = 1, 2 and 3.
// The stream pin sees that decode only through aggregate counters; this one
// names the symbols and the MCU cycles of every window, so it fails on a
// change that moves one symbol or one ledger entry even where the counters
// balance.
func TestFxpCorrelationPinned(t *testing.T) {
	pins.Check(t, "stream/fxp-correlation", fxpCorrelationHash(t))
}

// fxpCorrelationHash hashes, for every capture and K in turn, each
// window's detection flag, symbols and MCU cycles as one DecodeStreamWindow
// call on a clone of the prewarmed fixed-point master reports them.
func fxpCorrelationHash(t *testing.T) hash.Hash {
	t.Helper()
	h := sha256.New()
	ints := func(vs ...int) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, int64(v))
		}
	}
	for ti, tl := range pinTimelines {
		for k := 1; k <= 3; k++ {
			demod := core.DefaultConfig()
			demod.Params.K = k
			ts, err := sim.NewTagSet(demod.Params, radio.DefaultLinkBudget(), 3, 20, 80, testSeed)
			if err != nil {
				t.Fatal(err)
			}
			capture, err := ts.RenderTimeline(demod, tl)
			if err != nil {
				t.Fatal(err)
			}
			demod.Datapath = core.DatapathFixed
			src, err := NewSource(Config{Demod: demod, Seed: testSeed}, capture, 97)
			if err != nil {
				t.Fatal(err)
			}
			master, _, err := core.Prewarmed(demod)
			if err != nil {
				t.Fatal(err)
			}
			d := master.Clone()
			windows := 0
			for {
				j, err := src.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatalf("timeline %d K=%d: %v", ti, k, err)
				}
				syms, ok, err := d.DecodeStreamWindow(j.Env, j.EnvC, j.NSymbols, core.DefaultAGCConfig())
				if err != nil {
					t.Fatalf("timeline %d K=%d window %d: %v", ti, k, windows, err)
				}
				detected := 0
				if ok {
					detected = 1
				}
				ints(windows, detected, len(syms))
				ints(syms...)
				ints(int(d.TakeFxpCycles()))
				windows++
			}
			if windows == 0 {
				t.Fatalf("timeline %d K=%d: no windows", ti, k)
			}
		}
	}
	return h
}

// TestStreamOutputPinned hashes the stream receive path end to end on a
// short-gap capture and on a sparse one with collisions, in ModeFull and
// ModeVanilla, on the float and fixed datapaths, against one SHA-256. Like
// the gateway pins it holds across commits: a change that moves one
// emitted window sample, one schedule claim or one decode counter fails
// here.
func TestStreamOutputPinned(t *testing.T) {
	pins.Check(t, "stream/output", streamOutputHash(t))
}

// pinTimelines are the pinned captures: a short-gap one, and a sparse one
// with collisions.
var pinTimelines = []sim.TimelineConfig{
	{FramesPerTag: 3},
	{FramesPerTag: 3, MinGapSymbols: 100, MaxGapSymbols: 400, OverlapEvery: 5},
}

// streamOutputHash hashes, for every capture and demodulator config in
// turn: every job Source.Next yields (Tag, NSymbols, Want, and the bits of
// Env and EnvC), then the JSON of Demodulate's Stats at 1 and at 4 workers
// with the wall-clock Elapsed zeroed.
func streamOutputHash(t *testing.T) hash.Hash {
	t.Helper()
	h := sha256.New()
	for ti, tl := range pinTimelines {
		for _, mode := range []core.Mode{core.ModeFull, core.ModeVanilla} {
			demod := core.DefaultConfig()
			demod.Mode = mode
			ts, err := sim.NewTagSet(lora.DefaultParams(), radio.DefaultLinkBudget(), 3, 20, 80, testSeed)
			if err != nil {
				t.Fatal(err)
			}
			capture, err := ts.RenderTimeline(demod, tl)
			if err != nil {
				t.Fatal(err)
			}
			for _, dp := range []core.Datapath{core.DatapathFloat, core.DatapathFixed} {
				label := fmt.Sprintf("timeline %d %s/%s", ti, mode, dp)
				pcfg, scfg := testConfigs()
				pcfg.Demod.Mode, pcfg.Demod.Datapath = mode, dp
				scfg.Demod = pcfg.Demod
				hashJobs(t, h, label, scfg, capture)
				for _, workers := range []int{1, 4} {
					pcfg.Workers = workers
					st, err := Demodulate(context.Background(), pcfg, scfg, capture, 128)
					if err != nil {
						t.Fatalf("%s, %d workers: %v", label, workers, err)
					}
					st.Elapsed = 0
					b, err := json.Marshal(st)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(b)
				}
			}
		}
	}
	return h
}

// hashJobs writes every job a Source over capture yields into h.
func hashJobs(t *testing.T, h hash.Hash, label string, scfg Config, capture *sim.Stream) {
	t.Helper()
	src, err := NewSource(scfg, capture, 97)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ints := func(vs ...int) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, int64(v))
		}
	}
	floats := func(vs []float64) {
		ints(len(vs))
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	for {
		j, err := src.Next()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ints(j.Tag, j.NSymbols, len(j.Want))
		ints(j.Want...)
		floats(j.Env)
		floats(j.EnvC)
	}
}
