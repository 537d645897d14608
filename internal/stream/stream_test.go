package stream

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"saiyan/internal/core"
	"saiyan/internal/lora"
	"saiyan/internal/pipeline"
	"saiyan/internal/radio"
	"saiyan/internal/sim"
)

const testSeed = 20220404

// testCapture renders the acceptance workload: nTags tags at close range,
// framesPerTag frames each, idle gaps, continuous envelope.
func testCapture(t testing.TB, nTags, framesPerTag int, tl sim.TimelineConfig) *sim.Stream {
	t.Helper()
	ts, err := sim.NewTagSet(lora.DefaultParams(), radio.DefaultLinkBudget(), nTags, 20, 80, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	tl.FramesPerTag = framesPerTag
	capture, err := ts.RenderTimeline(core.DefaultConfig(), tl)
	if err != nil {
		t.Fatal(err)
	}
	return capture
}

func testConfigs() (pipeline.Config, Config) {
	pcfg := pipeline.DefaultConfig()
	pcfg.Seed = testSeed
	pcfg.DiscardResults = true
	scfg := Config{Demod: core.DefaultConfig(), Seed: testSeed}
	return pcfg, scfg
}

// statsEqual compares the deterministic counters.
func statsEqual(a, b Stats) bool {
	return a.FramesIn == b.FramesIn && a.FramesOut == b.FramesOut &&
		a.FramesDetected == b.FramesDetected && a.FramesChecked == b.FramesChecked &&
		a.FramesCorrect == b.FramesCorrect && a.Symbols == b.Symbols &&
		a.SymbolErrs == b.SymbolErrs &&
		a.FramesScheduled == b.FramesScheduled && a.WindowsEmitted == b.WindowsEmitted &&
		a.WindowsMatched == b.WindowsMatched && a.SamplesIn == b.SamplesIn
}

// TestStreamEndToEnd is the acceptance contract: a continuous capture of
// 3 tags x 4 frames with idle gaps, delivered in chunks small enough that
// every frame straddles a boundary, is segmented and demodulated with
// >= 95% frame recovery, and the Stats are identical at 1, 4, and 8
// workers.
func TestStreamEndToEnd(t *testing.T) {
	capture := testCapture(t, 3, 4, sim.TimelineConfig{})
	// A frame spans ~44 symbols (~283 samples); 128-sample chunks guarantee
	// every frame straddles at least one chunk boundary.
	const chunk = 128
	var first Stats
	for i, workers := range []int{1, 4, 8} {
		pcfg, scfg := testConfigs()
		pcfg.Workers = workers
		st, err := Demodulate(context.Background(), pcfg, scfg, capture, chunk)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.FramesScheduled != 12 {
			t.Fatalf("workers=%d: scheduled %d frames, want 12", workers, st.FramesScheduled)
		}
		// %v prints the pipeline line and the segmentation counters.
		want := fmt.Sprintf("%v scheduled=12 windows=%d matched=%d samples=%d",
			st.Stats, st.WindowsEmitted, st.WindowsMatched, st.SamplesIn)
		if got := fmt.Sprint(st); got != want {
			t.Errorf("workers=%d: Stats prints %q, want %q", workers, got, want)
		}
		if rec := st.Recovery(); rec < 0.95 {
			t.Errorf("workers=%d: recovery %.2f (%d/%d correct, %d windows, %d matched), want >= 0.95",
				workers, rec, st.FramesCorrect, st.FramesScheduled, st.WindowsEmitted, st.WindowsMatched)
		}
		if i == 0 {
			first = st
		} else if !statsEqual(first, st) {
			t.Errorf("workers=%d diverged from workers=1:\n1: %+v\n%d: %+v", workers, first, workers, st)
		}
	}
}

// TestStreamChunkInvariance verifies segmentation is a pure function of the
// capture: any chunking — one giant chunk, single samples, odd sizes, chunks
// larger than the segmenter's carry buffer — yields byte-identical windows
// and identical decode outcomes. At every chunking a Receiver's claims
// must agree with its accounting, each event claimed at most once.
func TestStreamChunkInvariance(t *testing.T) {
	capture := testCapture(t, 3, 2, sim.TimelineConfig{})
	_, scfg := testConfigs()
	probe, err := NewSegmenter(scfg, func(Window) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// Larger than the whole carry buffer, so delivery must grow it.
	big := len(probe.store) + 7
	if big >= len(capture.Env) {
		t.Fatalf("capture of %d samples too short for a %d-sample chunk", len(capture.Env), big)
	}
	ref := segmentWindows(t, capture, capture.Chunks(0))
	if len(ref) == 0 {
		t.Fatal("one-chunk delivery emitted no windows")
	}
	var first Stats
	for i, chunk := range []int{0, 1, 64, 97, 1000, big} {
		if diff := diffWindows(ref, segmentWindows(t, capture, capture.Chunks(chunk))); diff != "" {
			t.Errorf("chunk=%d: windows differ from one-chunk delivery: %s", chunk, diff)
		}
		pcfg, scfg := testConfigs()
		checkClaims(t, scfg, capture, chunk)
		pcfg.Workers = 2
		st, err := Demodulate(context.Background(), pcfg, scfg, capture, chunk)
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if i == 0 {
			first = st
		} else if !statsEqual(first, st) {
			t.Errorf("chunk=%d diverged:\nfirst: %+v\n here: %+v", chunk, first, st)
		}
	}
	if first.Recovery() < 0.95 {
		t.Errorf("recovery %.2f, want >= 0.95", first.Recovery())
	}
}

// checkClaims runs a Receiver over capture in chunk-sized chunks, then
// offers it a duplicate window, and checks its claims: no event claimed
// twice, a claim carries its event's tag, and matched + unmatched ==
// windows, as the callback saw them.
func checkClaims(t *testing.T, scfg Config, capture *sim.Stream, chunk int) {
	t.Helper()
	claimed := make([]bool, len(capture.Events))
	var matched, unmatched int
	rcv, err := NewReceiver(scfg, capture, func(j pipeline.Job, event int, _ int64) error {
		j.Release(j.Env, j.EnvC)
		if event < 0 {
			unmatched++
			return nil
		}
		if claimed[event] {
			t.Errorf("chunk=%d: event %d claimed twice", chunk, event)
		}
		if j.Tag != capture.Events[event].Tag {
			t.Errorf("chunk=%d: event %d claimed with tag %d, want %d", chunk, event, j.Tag, capture.Events[event].Tag)
		}
		claimed[event] = true
		matched++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rcv.Run(context.Background(), chunk); err != nil {
		t.Fatal(err)
	}
	// Offer a claimed frame's start once more: the duplicate window must
	// go through unmatched.
	if e := slices.Index(claimed, true); e >= 0 {
		if err := rcv.window(Window{Start: int64(capture.Events[e].StartSamp), Release: func(_, _ []float64) {}}); err != nil {
			t.Fatal(err)
		}
	}
	if matched == 0 || rcv.Matched() != matched || rcv.Unmatched() != unmatched || matched+unmatched != rcv.Windows() {
		t.Errorf("chunk=%d: receiver counts %d matched + %d unmatched of %d windows; callback saw %d + %d",
			chunk, rcv.Matched(), rcv.Unmatched(), rcv.Windows(), matched, unmatched)
	}
}

// segmentWindows runs one Segmenter over the given delivery chunks and
// returns every window it emits.
func segmentWindows(t testing.TB, capture *sim.Stream, chunks []sim.Chunk) []Window {
	t.Helper()
	_, scfg := testConfigs()
	scfg.PayloadSymbols = capture.PayloadSymbols
	var got []Window
	seg, err := NewSegmenter(scfg, func(w Window) error {
		got = append(got, w)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if err := seg.Push(c.Env, c.EnvC); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Flush(); err != nil {
		t.Fatal(err)
	}
	return got
}

// diffWindows describes the first difference between two window lists,
// comparing Start, NSymbols and every Env/EnvC sample bit for bit, or
// returns "" when they are identical.
func diffWindows(want, got []Window) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d windows, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Start != g.Start || w.NSymbols != g.NSymbols {
			return fmt.Sprintf("window %d: start %d (%d symbols), want %d (%d symbols)", i, g.Start, g.NSymbols, w.Start, w.NSymbols)
		}
		if d := diffSamples(w.Env, g.Env); d != "" {
			return fmt.Sprintf("window %d Env: %s", i, d)
		}
		if d := diffSamples(w.EnvC, g.EnvC); d != "" {
			return fmt.Sprintf("window %d EnvC: %s", i, d)
		}
	}
	return ""
}

func diffSamples(want, got []float64) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Sprintf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
	return ""
}

// FuzzSegmenterChunking delivers a small capture (with collisions) in
// fuzzed chunk-size sequences: whatever the chunking, the segmenter must
// emit exactly the windows a one-chunk delivery emits. Each input byte b
// is one chunk of b*b/16 samples (0–4064, so small chunks dominate and
// zero-length pushes occur); the sequence repeats until the capture runs
// out.
func FuzzSegmenterChunking(f *testing.F) {
	capture := testCapture(f, 2, 2, sim.TimelineConfig{OverlapEvery: 3})
	ref := segmentWindows(f, capture, capture.Chunks(0))
	if len(ref) == 0 {
		f.Fatal("one-chunk delivery emitted no windows")
	}
	f.Add([]byte{4})
	f.Add([]byte{40, 3, 0, 255, 17})
	f.Add([]byte{255, 255, 255})
	f.Add([]byte{1, 200, 2, 90})
	f.Fuzz(func(t *testing.T, sizes []byte) {
		got := segmentWindows(t, capture, cutChunks(capture, sizes))
		if diff := diffWindows(ref, got); diff != "" {
			t.Fatalf("chunk sizes %v: %s", sizes, diff)
		}
	})
}

// cutChunks cuts capture into consecutive chunks whose sampler-rate sizes
// cycle through sizes (b*b/16 samples per byte b; no sizes, or a cycle of
// zeros, delivers the rest in one chunk). Correlator-rate slices align the
// way sim.Stream.Chunks aligns them: the final chunk takes whatever EnvC
// remains.
func cutChunks(capture *sim.Stream, sizes []byte) []sim.Chunk {
	var out []sim.Chunk
	cut := func(lo, hi int) {
		c := sim.Chunk{Env: capture.Env[lo:hi]}
		if capture.EnvC != nil {
			r := capture.CorrOversample
			cHi := min(hi*r, len(capture.EnvC))
			if hi == len(capture.Env) {
				cHi = len(capture.EnvC)
			}
			c.EnvC = capture.EnvC[min(lo*r, len(capture.EnvC)):cHi]
		}
		out = append(out, c)
	}
	at := 0
	for len(sizes) > 0 && at < len(capture.Env) {
		from := at
		for _, b := range sizes {
			if at == len(capture.Env) {
				break
			}
			hi := min(at+int(b)*int(b)/16, len(capture.Env))
			cut(at, hi)
			at = hi
		}
		if at == from {
			break
		}
	}
	if at < len(capture.Env) {
		cut(at, len(capture.Env))
	}
	return out
}

// TestStreamCollisionsAreLostNotFatal schedules every 4th frame to collide
// with its predecessor: collided frames may be lost (a real gateway loses
// them too), but segmentation must keep working and clean frames must still
// be recovered.
func TestStreamCollisionsAreLostNotFatal(t *testing.T) {
	capture := testCapture(t, 3, 4, sim.TimelineConfig{OverlapEvery: 4})
	collisions := 0
	for _, ev := range capture.Events {
		if ev.Collides {
			collisions++
		}
	}
	if collisions == 0 {
		t.Fatal("timeline scheduled no collisions")
	}
	pcfg, scfg := testConfigs()
	pcfg.Workers = 4
	st, err := Demodulate(context.Background(), pcfg, scfg, capture, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Every collision can cost up to two frames (the collider and its
	// victim); everything else should still come through.
	clean := st.FramesScheduled - 2*collisions
	if int(st.FramesCorrect) < clean*9/10 {
		t.Errorf("recovered %d frames, want >= %d (%d scheduled, %d collisions)",
			st.FramesCorrect, clean*9/10, st.FramesScheduled, collisions)
	}
}

// TestStreamIdleCaptureEmitsNothing feeds a noise-only capture: the
// carrier-sense gate must keep the pipeline empty (no windows, no frames).
func TestStreamIdleCaptureEmitsNothing(t *testing.T) {
	capture := testCapture(t, 2, 1, sim.TimelineConfig{})
	// Keep only the idle lead-in plus some margin of the capture; no frame
	// starts there.
	idle := capture.Events[0].StartSamp - 1
	quiet := &sim.Stream{
		Env:              capture.Env[:idle],
		SampleRateHz:     capture.SampleRateHz,
		SamplesPerSymbol: capture.SamplesPerSymbol,
		CorrOversample:   capture.CorrOversample,
		PayloadSymbols:   capture.PayloadSymbols,
	}
	if capture.EnvC != nil {
		quiet.EnvC = capture.EnvC[:idle*capture.CorrOversample]
	}
	pcfg, scfg := testConfigs()
	pcfg.Workers = 1
	st, err := Demodulate(context.Background(), pcfg, scfg, quiet, 128)
	if err != nil {
		t.Fatal(err)
	}
	if st.WindowsEmitted != 0 || st.FramesOut != 0 {
		t.Errorf("idle capture produced %d windows / %d frames, want none", st.WindowsEmitted, st.FramesOut)
	}
}

// TestSegmenterConfigValidation exercises the rejection paths.
func TestSegmenterConfigValidation(t *testing.T) {
	if _, err := NewSegmenter(Config{Demod: core.DefaultConfig(), PayloadSymbols: -1}, func(Window) error { return nil }); err == nil {
		t.Error("negative payload length accepted")
	}
	if _, err := NewSegmenter(Config{Demod: core.DefaultConfig()}, nil); err == nil {
		t.Error("nil emit callback accepted")
	}
	bad := core.DefaultConfig()
	bad.Oversample = 1
	if _, err := NewSegmenter(Config{Demod: bad}, func(Window) error { return nil }); err == nil {
		t.Error("invalid demodulator config accepted")
	}
	// A payload length that disagrees with the capture's is an error
	// naming both, not a run that scores every window against the wrong
	// symbol count.
	capture := testCapture(t, 1, 1, sim.TimelineConfig{})
	for _, n := range []int{capture.PayloadSymbols / 2, capture.PayloadSymbols + 8} {
		_, err := NewSource(Config{Demod: core.DefaultConfig(), PayloadSymbols: n}, capture, 0)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(n)) || !strings.Contains(err.Error(), fmt.Sprint(capture.PayloadSymbols)) {
			t.Errorf("payload length %d on a %d-symbol capture: error %v, want one naming both lengths", n, capture.PayloadSymbols, err)
		}
	}
}

// TestRecycledWindowsDecodeAsOwnedCopies runs the window hand-off under
// load: four pipeline workers decode windows and hand their buffers back
// while the segmenter keeps cutting new windows into the recycled ones.
// The segmenter must have cut fewer buffers than windows, so buffers were
// recycled, and every window must decode exactly as its never-recycled
// copy does, so no buffer was reused while a worker still read it; under
// -race the test also checks the hand-off's synchronization.
func TestRecycledWindowsDecodeAsOwnedCopies(t *testing.T) {
	capture := testCapture(t, 8, 8, sim.TimelineConfig{OverlapEvery: 4})
	chunks := capture.Chunks(97)
	owned := segmentWindows(t, capture, chunks)
	master, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	master.PrewarmAuto()
	d := master.Clone()
	agc := core.DefaultAGCConfig()
	type outcome struct {
		syms     []int
		detected bool
	}
	want := make([]outcome, len(owned))
	for i, w := range owned {
		syms, ok, err := d.DecodeStreamWindow(w.Env, w.EnvC, w.NSymbols, agc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = outcome{append([]int(nil), syms...), ok}
	}

	pcfg, scfg := testConfigs()
	pcfg.Workers = 4
	pcfg.DiscardResults = false
	scfg.PayloadSymbols = capture.PayloadSymbols
	p, err := pipeline.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]outcome, len(owned))
	n := 0
	var released atomic.Int64
	buffers := make(map[*float64]bool) // each window's Env array, by its first element
	_, err = p.Collect(func() error {
		seg, err := NewSegmenter(scfg, func(w Window) error {
			buffers[&w.Env[:1][0]] = true
			return p.Submit(pipeline.Job{Tag: -1, Env: w.Env, EnvC: w.EnvC, NSymbols: w.NSymbols,
				Release: func(env, envC []float64) {
					released.Add(1)
					w.Release(env, envC)
				}})
		})
		if err != nil {
			return err
		}
		for _, c := range chunks {
			if err := seg.Push(c.Env, c.EnvC); err != nil {
				return err
			}
		}
		return seg.Flush()
	}, func(res pipeline.Result) {
		if res.Err != nil {
			t.Error(res.Err)
		}
		if int(res.Seq) < len(got) {
			got[res.Seq] = outcome{res.Symbols, res.Detected}
		}
		n++
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(owned) {
		t.Fatalf("%d results, want %d", n, len(owned))
	}
	if n := released.Load(); n != int64(len(owned)) {
		t.Errorf("%d windows handed back, want %d", n, len(owned))
	}
	if len(buffers) >= len(owned) {
		t.Errorf("%d windows in %d distinct buffers: none was recycled", len(owned), len(buffers))
	}
	for i := range want {
		if got[i].detected != want[i].detected || !slices.Equal(got[i].syms, want[i].syms) {
			t.Errorf("window %d: decoded %v (detected %v) from a recycled buffer, want %v (detected %v)",
				i, got[i].syms, got[i].detected, want[i].syms, want[i].detected)
		}
	}
}

// TestDeliveredSymbolsStayOwned keeps every Result.Symbols a consumer
// receives from four workers, appending to each as a consumer may, and
// checks them all against their reference decodes only after every later
// window has decoded. The Source's jobs go in batches of 1 to 8, so
// windows share a batch's symbol array; a symbol overwritten by a later
// decode, or by an append running into a neighbour's symbols, shows as a
// mismatch, and under -race as a race.
func TestDeliveredSymbolsStayOwned(t *testing.T) {
	capture := testCapture(t, 8, 8, sim.TimelineConfig{OverlapEvery: 4})
	const chunk = 97
	owned := segmentWindows(t, capture, capture.Chunks(chunk))
	master, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	master.PrewarmAuto()
	d := master.Clone()
	want := make([][]int, len(owned))
	for i, w := range owned {
		if want[i], _, err = d.DecodeStreamWindow(w.Env, w.EnvC, w.NSymbols, core.DefaultAGCConfig()); err != nil {
			t.Fatal(err)
		}
	}

	pcfg, scfg := testConfigs()
	pcfg.Workers = 4
	pcfg.DiscardResults = false
	src, err := NewSource(scfg, capture, chunk)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]int, len(owned))
	_, err = p.Collect(func() error {
		batch := make([]pipeline.Job, 0, 8)
		for size := 1; ; size = size%8 + 1 {
			batch = batch[:0]
			for len(batch) < size {
				j, err := src.Next()
				if err == io.EOF {
					return p.Submit(batch...)
				}
				if err != nil {
					return err
				}
				batch = append(batch, j)
			}
			if err := p.Submit(batch...); err != nil {
				return err
			}
		}
	}, func(res pipeline.Result) {
		if res.Err != nil || int(res.Seq) >= len(got) {
			t.Errorf("result %d: err %v, want one of %d windows", res.Seq, res.Err, len(got))
			return
		}
		if res.Symbols != nil {
			_ = append(res.Symbols, -1)
		}
		got[res.Seq] = res.Symbols
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("window %d: kept symbols %v, want %v", i, got[i], want[i])
		}
	}
}
