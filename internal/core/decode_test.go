package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"saiyan/internal/dsp"
	"saiyan/internal/lora"
)

// refDecodeByCorrelation is the per-symbol loop decodeByCorrelation
// replaced: each symbol's window bounds rounded on their own, and its
// symbol from bestTemplate (which TestBestTemplateMatchesWindowCorrelation
// holds to windowCorrelation).
func refDecodeByCorrelation(d *Demodulator, out []int, env []float64) {
	ratio := float64(d.spbSimInt) / float64(d.cfg.Oversample/d.cfg.CorrOversample)
	for s := range out {
		lo := min(int(math.Round(float64(s)*ratio)), len(env))
		hi := min(int(math.Round(float64(s+1)*ratio)), len(env))
		out[s] = 0
		if lo < hi {
			out[s], _ = d.bestTemplate(env[lo:hi])
		}
	}
}

// checkDecode fails t unless decodeByCorrelation decodes nSymbols symbols
// of env exactly as the reference does. The output starts dirty, so an
// unwritten symbol fails too.
func checkDecode(t testing.TB, label string, d *Demodulator, env []float64, nSymbols int) {
	t.Helper()
	want := make([]int, nSymbols)
	refDecodeByCorrelation(d, want, env)
	got := make([]int, nSymbols)
	for i := range got {
		got[i] = -1
	}
	d.decodeByCorrelation(got, env)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: decodeByCorrelation %v, reference %v", label, got, want)
	}
}

// corrDecodeDemods returns prewarmed ModeFull demodulators at K = 1..4
// under the default geometry, and under two geometries whose correlator
// windows alternate around the template length (Oversample 10 with
// CorrOversample 2, and 12 with 4), so some windows fall short of it.
func corrDecodeDemods(t testing.TB) []*Demodulator {
	t.Helper()
	var ds []*Demodulator
	for _, geo := range [][2]int{{16, 4}, {10, 2}, {12, 4}} {
		for k := 1; k <= 4; k++ {
			cfg := DefaultConfig()
			cfg.Params.K = k
			cfg.Oversample, cfg.CorrOversample = geo[0], geo[1]
			d, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d.PrewarmAuto()
			ds = append(ds, d)
		}
	}
	return ds
}

// payloadEnvelope renders n random payload symbols as the correlator
// sees them after sync, with noise at rssDBm.
func payloadEnvelope(d *Demodulator, n int, rssDBm float64, rng *rand.Rand) []float64 {
	p := d.cfg.Params
	var traj, sym []float64
	for range n {
		sym = p.FreqTrajectory(sym, p.SymbolValue(rng.IntN(p.AlphabetSize())), d.fsSim)
		traj = append(traj, sym...)
	}
	return d.RenderCorrEnvelope(nil, traj, rssDBm, rng)
}

// TestDecodeByCorrelationMatchesReference holds the batched payload
// decoder to the per-symbol bestTemplate loop at K = 1..4 on three window
// geometries: whole payloads (group counts with and without a short last
// group), envelopes that end mid-symbol or one sample short of a full last
// window, more symbols than the envelope holds, per-symbol DC offsets, and
// NaN and ±Inf samples.
func TestDecodeByCorrelationMatchesReference(t *testing.T) {
	rng := dsp.NewRand(34, 1)
	for _, d := range corrDecodeDemods(t) {
		name := fmt.Sprintf("K=%d/os=%d/%d", d.cfg.Params.K, d.cfg.Oversample, d.cfg.CorrOversample)
		n := len(d.templates[0])
		decim := d.cfg.Oversample / d.cfg.CorrOversample
		for _, nSymbols := range []int{1, 3, 4, 7, lora.DefaultPayloadSymbols} {
			env := payloadEnvelope(d, nSymbols, -75, rng)
			checkDecode(t, name+"/whole", d, env, nSymbols)
			checkDecode(t, name+"/overlong", d, env, nSymbols+5)
			for s := range nSymbols {
				lo := d.symbolStart(s, decim, len(env))
				for _, cut := range []int{lo + 1, lo + n/2, lo + n - 1, lo + n} {
					checkDecode(t, fmt.Sprintf("%s/cut %d of %d", name, cut, len(env)), d, env[:min(cut, len(env))], nSymbols)
				}
			}
		}
		env := payloadEnvelope(d, lora.DefaultPayloadSymbols, -70, rng)
		for trial := range 40 {
			dirty := slices.Clone(env)
			// A DC offset per symbol makes every window's mean its own.
			for s := range lora.DefaultPayloadSymbols {
				lo, hi := d.symbolWindow(s, decim, len(dirty))
				off := float64(rng.IntN(7)-3) * 1e3
				for i := lo; i < hi; i++ {
					dirty[i] += off
				}
			}
			for range 1 + rng.IntN(3) {
				dirty[rng.IntN(len(dirty))] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.IntN(3)]
			}
			checkDecode(t, fmt.Sprintf("%s/non-finite %d", name, trial), d, dirty, lora.DefaultPayloadSymbols)
		}
	}
}

// FuzzCorrelationDecode holds the batched payload decoder to the
// per-symbol reference on fuzzed envelopes: a rendered payload at K = 1..4
// whose samples the fuzzer overwrites (NaN, ±Inf, large or small values)
// and whose length it cuts anywhere.
func FuzzCorrelationDecode(f *testing.F) {
	ds := corrDecodeDemods(f)[:4] // the default geometry
	rng := dsp.NewRand(34, 2)
	envs := make([][]float64, len(ds))
	for i, d := range ds {
		envs[i] = payloadEnvelope(d, lora.DefaultPayloadSymbols, -75, rng)
	}
	f.Add(byte(0), uint16(0xffff), []byte{})
	f.Add(byte(1), uint16(300), []byte{10, 255, 60, 254})
	f.Add(byte(2), uint16(1000), []byte{0, 253, 7, 128, 9, 3})
	f.Add(byte(3), uint16(5000), []byte{40, 255, 41, 255})
	f.Fuzz(func(t *testing.T, k byte, cut uint16, edits []byte) {
		i := int(k) % len(ds)
		d, env := ds[i], slices.Clone(envs[i])
		for j := 0; j+1 < len(edits); j += 2 {
			at := int(edits[j]) * len(env) / 256
			switch v := edits[j+1]; v {
			case 255:
				env[at] = math.NaN()
			case 254:
				env[at] = math.Inf(1)
			case 253:
				env[at] = math.Inf(-1)
			default:
				env[at] = math.Ldexp(float64(v)-128, int(v%32)-8)
			}
		}
		env = env[:min(int(cut), len(env))]
		checkDecode(t, "fuzz", d, env, lora.DefaultPayloadSymbols)
	})
}

// decodeWindow is one frame window cut from a rendered capture the way
// the stream segmenter cuts it.
type decodeWindow struct {
	env, envC []float64
}

// captureWindows renders frames random frames of 32 payload symbols into
// one capture, each after an idle gap of 2-6 symbols at an RSS between
// -55 and -80 dBm (the capture workload's shape), and cuts each frame's
// window from its first sampler-rate sample over the segmenter's window
// length: preamble, sync, payload and one guard symbol.
func captureWindows(t testing.TB, d *Demodulator, frames int, rng *rand.Rand) []decodeWindow {
	t.Helper()
	p := d.cfg.Params
	spbSim := p.SamplesPerSymbol(d.fsSim)
	type placed struct {
		at   int
		rss  float64
		traj []float64
	}
	var events []placed
	at := 4 * spbSim
	for range frames {
		payload := make([]int, lora.DefaultPayloadSymbols)
		for i := range payload {
			payload[i] = rng.IntN(p.AlphabetSize())
		}
		frame, err := lora.NewFrame(p, payload)
		if err != nil {
			t.Fatal(err)
		}
		at += int((2 + 4*rng.Float64()) * float64(spbSim))
		ev := placed{at: at, rss: -55 - 25*rng.Float64(), traj: frame.FreqTrajectory(nil, d.fsSim)}
		events = append(events, ev)
		at += len(ev.traj)
	}
	x := make([]complex128, at+4*spbSim)
	for _, ev := range events {
		d.ComposeSignal(x, ev.at, ev.traj, ev.rss)
	}
	env, envC := d.RenderStream(x, rng)
	ovs := d.cfg.Oversample
	frameLen := int(math.Ceil((float64(lora.PreambleUpchirps) + lora.SyncSymbols + lora.DefaultPayloadSymbols + 1) * d.spbSamp))
	var ws []decodeWindow
	for _, ev := range events {
		start := (ev.at - ovs/2 + ovs - 1) / ovs
		w := decodeWindow{env: env[start:min(start+frameLen, len(env))]}
		if envC != nil {
			r := d.cfg.CorrOversample
			w.envC = envC[start*r : min((start+frameLen)*r, len(envC))]
		}
		ws = append(ws, w)
	}
	return ws
}

// BenchmarkDecodeStreamWindow times DecodeStreamWindowInto, the window
// decode a stream worker runs, on capture-shaped windows (captureWindows)
// on both datapaths at K = 1, 2 and 3, the rates the gateway's rate
// adapter assigns, and reports ns/window.
func BenchmarkDecodeStreamWindow(b *testing.B) {
	for _, dp := range []Datapath{DatapathFloat, DatapathFixed} {
		for k := 1; k <= 3; k++ {
			b.Run(fmt.Sprintf("%s/K=%d", dp, k), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Datapath = dp
				cfg.Params.K = k
				master, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				master.PrewarmAuto()
				d := master.Clone()
				windows := captureWindows(b, d, 16, dsp.NewRand(34, 3))
				dst := make([]int, lora.DefaultPayloadSymbols)
				agc := DefaultAGCConfig()
				for i, w := range windows {
					if _, ok, err := d.DecodeStreamWindowInto(dst, w.env, w.envC, len(dst), agc); err != nil || !ok {
						b.Fatalf("window %d: detected %v, err %v", i, ok, err)
					}
				}
				b.ReportAllocs()
				for b.Loop() {
					for _, w := range windows {
						if _, _, err := d.DecodeStreamWindowInto(dst, w.env, w.envC, len(dst), agc); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(windows)), "ns/window")
			})
		}
	}
}
