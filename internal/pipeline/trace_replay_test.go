package pipeline

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"saiyan/internal/lora"
	"saiyan/internal/radio"
	"saiyan/internal/sim"
	"saiyan/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata/golden.trace.gz")

const goldenPath = "testdata/golden.trace.gz"

// goldenConfig is the fixed recording setup of the checked-in golden
// trace: 4 tags, 2 frames each, default demodulator, seed 20220404.
func goldenConfig() (Config, Source, error) {
	ts, err := sim.NewTagSet(lora.DefaultParams(), radio.DefaultLinkBudget(), 4, 20, 120, testSeed)
	if err != nil {
		return Config{}, nil, err
	}
	src, err := NewTagSetSource(ts, 2)
	if err != nil {
		return Config{}, nil, err
	}
	cfg := DefaultConfig()
	cfg.Seed = testSeed
	cfg.Workers = 2
	cfg.DiscardResults = true
	return cfg, src, nil
}

// recordToBuffer runs src through a recording pipeline and returns the
// trace bytes plus the live run's stats.
func recordToBuffer(t testing.TB, cfg Config, src Source, samples bool) ([]byte, Stats) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, p.TraceHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Record(w, samples); err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), st
}

// statsEqual compares the deterministic counters (everything except the
// wall clock and pool size).
func statsEqual(a, b Stats) bool {
	return a.FramesIn == b.FramesIn && a.FramesOut == b.FramesOut &&
		a.FramesDetected == b.FramesDetected && a.FramesChecked == b.FramesChecked &&
		a.FramesCorrect == b.FramesCorrect && a.Symbols == b.Symbols &&
		a.SymbolErrs == b.SymbolErrs && a.SimSamples == b.SimSamples
}

// TestTeeReplayStatsParity is the acceptance contract: a live run with the
// record tee, replayed from its own trace, yields identical Stats
// (SER/PRR/detect and every underlying counter) and bit-identical
// decisions at several worker counts.
func TestTeeReplayStatsParity(t *testing.T) {
	ts, err := sim.NewTagSet(lora.DefaultParams(), radio.DefaultLinkBudget(), 5, 20, 130, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewTagSetSource(ts, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = testSeed
	cfg.Workers = 3
	cfg.DiscardResults = true
	data, live := recordToBuffer(t, cfg, src, false)
	if live.FramesOut != 10 {
		t.Fatalf("live run processed %d frames, want 10", live.FramesOut)
	}

	for _, workers := range []int{1, 4} {
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := Replay(r, workers)
		if err != nil {
			t.Fatalf("replay with %d workers: %v", workers, err)
		}
		if !statsEqual(live, replayed) {
			t.Errorf("replay with %d workers diverged from live run:\nlive:   %v\nreplay: %v",
				workers, live, replayed)
		}

		r2, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		st, mismatches, err := VerifyReplay(r2, workers)
		if err != nil {
			t.Fatalf("verify with %d workers: %v", workers, err)
		}
		if mismatches != 0 {
			t.Errorf("verify with %d workers: %d frames diverged from recorded decisions", workers, mismatches)
		}
		if !statsEqual(live, st) {
			t.Errorf("verify stats diverged:\nlive:   %v\nverify: %v", live, st)
		}
	}
}

// TestTeeWithSamples verifies the sample-capturing tee records non-empty
// trajectory/envelope sections that replay cleanly.
func TestTeeWithSamples(t *testing.T) {
	ts, err := sim.NewTagSet(lora.DefaultParams(), radio.DefaultLinkBudget(), 2, 20, 60, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewTagSetSource(ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = testSeed
	cfg.Workers = 2
	cfg.DiscardResults = true
	data, _ := recordToBuffer(t, cfg, src, true)

	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Traj) == 0 || len(rec.Env) == 0 {
			t.Errorf("record %d: traj %d / env %d samples, want both non-empty", rec.Seq, len(rec.Traj), len(rec.Env))
		}
		n++
	}
	if n != 2 {
		t.Fatalf("read %d sample records, want 2", n)
	}
	r2, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, mismatches, err := VerifyReplay(r2, 2); err != nil || mismatches != 0 {
		t.Errorf("sample trace replay: mismatches=%d err=%v", mismatches, err)
	}
}

// TestRecordDeterministicBytes verifies the tee emits byte-identical trace
// files regardless of worker count — the recorder reorders results back
// into submission order.
func TestRecordDeterministicBytes(t *testing.T) {
	var first []byte
	for _, workers := range []int{1, 4} {
		cfg, src, err := goldenConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = workers
		data, _ := recordToBuffer(t, cfg, src, false)
		if first == nil {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Errorf("trace bytes differ between 1 and %d workers", workers)
		}
	}
}

// TestRecordAfterTrafficRejected locks the tee attachment window.
func TestRecordAfterTrafficRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = testSeed
	cfg.Workers = 1
	cfg.DiscardResults = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := testTraffic(t, 1, 1)
	if err := p.Submit(jobs...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, p.TraceHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Record(w, false); err == nil {
		t.Error("Record after Submit succeeded")
	}
	p.Drain()
}

// TestRecordRejectsForeignParams verifies the tee refuses frames whose
// LoRa parameters differ from the pipeline's configuration: replay
// rebuilds frames from the header's parameters, so such a trace could
// never replay bit-exactly.
func TestRecordRejectsForeignParams(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = testSeed
	cfg.Workers = 1
	cfg.DiscardResults = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, p.TraceHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Record(w, false); err != nil {
		t.Fatal(err)
	}
	foreign := lora.DefaultParams()
	foreign.K = 2 // different alphabet than the pipeline's Demod config
	frame, err := lora.NewFrame(foreign, []int{3, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Collect(func() error {
		return p.Submit(Job{Tag: 0, Frame: frame, RSSDBm: -60})
	}, nil); err == nil || !strings.Contains(err.Error(), "pipeline configured for") {
		t.Errorf("recording a foreign-params frame: err=%v, want the tee's refusal", err)
	}
	w.Abort()
}

// TestTraceSourceTruncated verifies a cut-off trace surfaces ErrTruncated
// through Run instead of being silently treated as complete.
func TestTraceSourceTruncated(t *testing.T) {
	cfg, src, err := goldenConfig()
	if err != nil {
		t.Fatal(err)
	}
	data, _ := recordToBuffer(t, cfg, src, false)
	cut := data[:len(data)-1]

	r, err := trace.NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Replay(r, 2)
	if !errors.Is(err, trace.ErrTruncated) {
		t.Errorf("replaying truncated trace: err=%v, want ErrTruncated", err)
	}
}

// TestGoldenTraceReplay replays the checked-in golden trace: the decoded
// symbol stream must reproduce the recorded decisions bit-exactly at any
// worker count, pinning the demodulator's behavior across refactors.
// Regenerate with: go test ./internal/pipeline -run TestGoldenTraceReplay -update-golden
func TestGoldenTraceReplay(t *testing.T) {
	if *updateGolden {
		cfg, src, err := goldenConfig()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := trace.Create(goldenPath, p.TraceHeader())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Record(w, false); err != nil {
			t.Fatal(err)
		}
		st, err := p.Run(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d frames)", goldenPath, st.FramesOut)
	}

	for _, workers := range []int{1, 4, 8} {
		r, err := trace.Open(goldenPath)
		if err != nil {
			t.Fatalf("opening golden trace (regenerate with -update-golden): %v", err)
		}
		st, mismatches, err := VerifyReplay(r, workers)
		r.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if mismatches != 0 {
			t.Errorf("workers=%d: %d of %d frames diverged from the golden decisions", workers, mismatches, st.FramesOut)
		}
		if st.FramesOut != 8 {
			t.Errorf("workers=%d: replayed %d frames, golden has 8", workers, st.FramesOut)
		}
		if st.PRR() < 0.9 {
			t.Errorf("workers=%d: golden replay PRR %.2f, want >= 0.9 (close-range traffic)", workers, st.PRR())
		}
	}
}

// TestRunMatchesManualSubmit verifies the pull loop decodes the same
// stream as hand-batched Submit calls.
func TestRunMatchesManualSubmit(t *testing.T) {
	jobs := testTraffic(t, 4, 2)
	cfg := DefaultConfig()
	cfg.Seed = testSeed
	cfg.Workers = 2
	_, manual := runPipeline(t, cfg, jobs, 4)

	ts, err := sim.NewTagSet(lora.DefaultParams(), radio.DefaultLinkBudget(), 4, 20, 120, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewTagSetSource(ts, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ran, err := p.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqual(manual, ran) {
		t.Errorf("Run diverged from manual Submit:\nmanual: %v\nrun:    %v", manual, ran)
	}
}
