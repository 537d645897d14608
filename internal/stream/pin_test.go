package stream

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"testing"

	"saiyan/internal/core"
	"saiyan/internal/lora"
	"saiyan/internal/radio"
	"saiyan/internal/sim"
)

// streamOutputPin is the SHA-256 of everything streamOutputHash covers.
// Like the gateway pins it holds across commits: a change that moves one
// emitted window sample, one schedule claim or one decode counter fails
// here. A change that alters the output on purpose sets the pin to the
// hash the test reports and says so.
const streamOutputPin = "a5f54deedcbefe5a9213554a7ea7f07dffa044c0a7d9d4a6349d1e3adf57a01b"

// TestStreamOutputPinned hashes the stream receive path end to end on a
// short-gap capture and on a sparse one with collisions, in ModeFull and
// ModeVanilla, on the float and fixed datapaths, against one SHA-256.
func TestStreamOutputPinned(t *testing.T) {
	if got := streamOutputHash(t); got != streamOutputPin {
		t.Errorf("stream output hash %s, want %s", got, streamOutputPin)
	}
}

// streamOutputHash hashes, for every capture and demodulator config in
// turn: every job Source.Next yields (Tag, NSymbols, Want, and the bits of
// Env and EnvC), then the JSON of Demodulate's Stats at 1 and at 4 workers
// with the wall-clock Elapsed zeroed.
func streamOutputHash(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	timelines := []sim.TimelineConfig{
		{FramesPerTag: 3},
		{FramesPerTag: 3, MinGapSymbols: 100, MaxGapSymbols: 400, OverlapEvery: 5},
	}
	for ti, tl := range timelines {
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
	return hex.EncodeToString(h.Sum(nil))
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
