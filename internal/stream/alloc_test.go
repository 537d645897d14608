package stream

import (
	"math"
	"slices"
	"testing"

	"saiyan/internal/core"
	"saiyan/internal/lora"
	"saiyan/internal/sim"
)

// idleChunks cuts the idle air between the two frames of a wide-gap
// capture into 64-sample delivery chunks.
func idleChunks(t *testing.T) []sim.Chunk {
	t.Helper()
	capture := testCapture(t, 2, 1, sim.TimelineConfig{MinGapSymbols: 200, MaxGapSymbols: 200})
	spb := capture.SamplesPerSymbol
	frame := float64(lora.PreambleUpchirps) + lora.SyncSymbols + float64(capture.PayloadSymbols)
	lo := capture.Events[0].StartSamp + int(math.Ceil((frame+4)*spb))
	hi := capture.Events[1].StartSamp - int(math.Ceil(4*spb))
	r := capture.CorrOversample
	idle := &sim.Stream{Env: capture.Env[lo:hi], EnvC: capture.EnvC[lo*r : hi*r], CorrOversample: r}
	return idle.Chunks(64)
}

// TestSegmenterPushIdleAllocs pins the steady-state hunt over idle air at
// zero allocations: each chunk's live tail is copied into the carry
// buffers, and the carrier-sense scans and their buffer advances allocate
// nothing.
func TestSegmenterPushIdleAllocs(t *testing.T) {
	chunks := idleChunks(t)
	_, scfg := testConfigs()
	seg, err := NewSegmenter(scfg, func(Window) error {
		t.Fatal("window emitted over idle air")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	push := func() {
		for _, c := range chunks {
			if err := seg.Push(c.Env, c.EnvC); err != nil {
				t.Fatal(err)
			}
		}
	}
	push()
	if allocs := testing.AllocsPerRun(20, push); allocs != 0 {
		t.Errorf("steady-state Push over idle air: %.1f allocations per %d chunks, want 0", allocs, len(chunks))
	}
}

// TestDetectPreambleGatedAllocs pins the segmenter's preamble detector at
// zero allocations: the correlation is stepped lag by lag into a run
// tracker with no buffer, and the detection template is centered once at
// calibration.
func TestDetectPreambleGatedAllocs(t *testing.T) {
	capture := testCapture(t, 2, 1, sim.TimelineConfig{})
	_, scfg := testConfigs()
	seg, err := NewSegmenter(scfg, func(Window) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	at := capture.Events[0].StartSamp
	hunt := capture.Env[at : at+seg.huntLen]
	if _, ok := seg.d.DetectPreambleGated(hunt, seg.gate); !ok {
		t.Fatal("no preamble detected at a scheduled frame start")
	}
	allocs := testing.AllocsPerRun(20, func() { seg.d.DetectPreambleGated(hunt, seg.gate) })
	if allocs != 0 {
		t.Errorf("DetectPreambleGated: %.1f allocations, want 0", allocs)
	}
}

// TestDecodeStreamWindowAllocs pins window decode on both datapaths at one
// allocation, the returned symbol slice: AutoCalibrate sorts into scratch
// and frame sync steps the correlation without a buffer.
func TestDecodeStreamWindowAllocs(t *testing.T) {
	capture := testCapture(t, 2, 1, sim.TimelineConfig{})
	windows := segmentWindows(t, capture, capture.Chunks(0))
	if len(windows) == 0 {
		t.Fatal("no windows emitted")
	}
	w := windows[0]
	agc := core.DefaultAGCConfig()
	for _, dp := range []core.Datapath{core.DatapathFloat, core.DatapathFixed} {
		cfg := core.DefaultConfig()
		cfg.Datapath = dp
		master, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		master.PrewarmAuto()
		d := master.Clone()
		syms, ok, err := d.DecodeStreamWindow(w.Env, w.EnvC, w.NSymbols, agc)
		if err != nil || !ok || len(syms) != w.NSymbols {
			t.Fatalf("datapath %v: decode = %d symbols, ok=%v, err=%v; want %d symbols", dp, len(syms), ok, err, w.NSymbols)
		}
		allocs := testing.AllocsPerRun(20, func() { d.DecodeStreamWindow(w.Env, w.EnvC, w.NSymbols, agc) })
		if allocs > 1 {
			t.Errorf("datapath %v: DecodeStreamWindow %.1f allocations, want at most 1 (the symbol slice)", dp, allocs)
		}
	}
}

// TestDecodeStreamWindowIntoAllocs pins the storage-taking window decode
// on both datapaths at zero allocations, and holds it to
// DecodeStreamWindow: storage left dirty by another window decodes to the
// same symbols.
func TestDecodeStreamWindowIntoAllocs(t *testing.T) {
	capture := testCapture(t, 2, 1, sim.TimelineConfig{})
	windows := segmentWindows(t, capture, capture.Chunks(0))
	if len(windows) < 2 {
		t.Fatalf("%d windows emitted, want 2", len(windows))
	}
	agc := core.DefaultAGCConfig()
	for _, dp := range []core.Datapath{core.DatapathFloat, core.DatapathFixed} {
		cfg := core.DefaultConfig()
		cfg.Datapath = dp
		master, _, err := core.Prewarmed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := master.Clone()
		for i, w := range windows {
			want, wantOK, err := d.DecodeStreamWindow(w.Env, w.EnvC, w.NSymbols, agc)
			if err != nil || !wantOK {
				t.Fatalf("datapath %v window %d: detected=%v, err=%v", dp, i, wantOK, err)
			}
			other := windows[1-i]
			dst, _, _ := d.DecodeStreamWindowInto(make([]int, 0, w.NSymbols), other.Env, other.EnvC, other.NSymbols, agc)
			got, ok, err := d.DecodeStreamWindowInto(dst, w.Env, w.EnvC, w.NSymbols, agc)
			if err != nil || !ok || !slices.Equal(got, want) || &got[0] != &dst[0] {
				t.Errorf("datapath %v window %d: decoded %v (detected %v, err %v) into dirty storage, want %v in place", dp, i, got, ok, err, want)
			}
		}
		w := windows[0]
		dst := make([]int, w.NSymbols)
		allocs := testing.AllocsPerRun(20, func() { d.DecodeStreamWindowInto(dst, w.Env, w.EnvC, w.NSymbols, agc) })
		if allocs != 0 {
			t.Errorf("datapath %v: DecodeStreamWindowInto %.1f allocations, want 0", dp, allocs)
		}
	}
}

// TestExtractRecycledAllocs pins window extraction at zero allocations
// once the pipeline hands window buffers back. One frame with idle air on
// either side is pushed over and over in chunks much shorter than the
// frame, so each window locks in one chunk and is filled straight from
// the chunks after it; the emit callback releases each window as a
// decoding worker would.
func TestExtractRecycledAllocs(t *testing.T) {
	capture := testCapture(t, 2, 1, sim.TimelineConfig{MinGapSymbols: 200, MaxGapSymbols: 200})
	_, scfg := testConfigs()
	scfg.PayloadSymbols = capture.PayloadSymbols
	windows := 0
	seg, err := NewSegmenter(scfg, func(w Window) error {
		windows++
		w.Release(w.Env, w.EnvC)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 61
	if seg.frameLen < 3*chunk {
		t.Fatalf("%d-sample frame window, want one spanning at least three %d-sample chunks", seg.frameLen, chunk)
	}
	margin := int(math.Ceil(20 * capture.SamplesPerSymbol))
	lo := capture.Events[0].StartSamp - margin
	hi := capture.Events[0].StartSamp + seg.frameLen + margin
	r := capture.CorrOversample
	frame := &sim.Stream{Env: capture.Env[lo:hi], EnvC: capture.EnvC[lo*r : hi*r], CorrOversample: r}
	chunks := frame.Chunks(chunk)
	push := func() {
		for _, c := range chunks {
			if err := seg.Push(c.Env, c.EnvC); err != nil {
				t.Fatal(err)
			}
		}
	}
	push()
	const runs = 20
	windows = 0
	allocs := testing.AllocsPerRun(runs, push)
	if windows != runs+1 {
		t.Fatalf("%d windows in %d pushes of the frame, want one each", windows, runs+1)
	}
	if allocs != 0 {
		t.Errorf("lock and fill with windows handed back: %.1f allocations, want 0", allocs)
	}
}
