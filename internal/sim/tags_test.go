package sim

import (
	"slices"
	"testing"

	"saiyan/internal/dsp"
	"saiyan/internal/lora"
	"saiyan/internal/radio"
)

// TestTagSeedMixAvoidsNoiseShardCollision pins the seed-mix regression: the
// old mix (Seed ^ tag*K) was a no-op for tag 0, so tag 0's payload RNG was
// the identical PCG stream as the pipeline's per-frame noise shard
// dsp.NewRand(cfg.Seed, frameSeq) whenever the seeds matched. The finalized
// mix must decouple every tag — including tag 0 — from the raw set seed.
func TestTagSeedMixAvoidsNoiseShardCollision(t *testing.T) {
	const seed = 20220404
	ts, err := NewTagSet(lora.DefaultParams(), radio.DefaultLinkBudget(), 4, 20, 120, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{0, 1, 7} {
		_, payload, err := ts.Frame(0, seq)
		if err != nil {
			t.Fatal(err)
		}
		// The stream a colliding mix would produce: the raw seed, the same
		// second word, the same IntN draws.
		shadow := dsp.NewRand(seed, seq)
		same := true
		for _, s := range payload {
			if s != shadow.IntN(ts.Params.AlphabetSize()) {
				same = false
				break
			}
		}
		if same {
			t.Errorf("seq %d: tag 0 payload reproduces the dsp.NewRand(seed, seq) stream; seed mix is an identity", seq)
		}
	}
	if got := tagStreamSeed(seed, 0); got == seed {
		t.Error("tagStreamSeed(seed, 0) == seed: finalizer is an identity for tag 0")
	}
}

// TestTagSeedsDistinct verifies adjacent tags draw from unrelated streams.
func TestTagSeedsDistinct(t *testing.T) {
	const seed = 99
	seen := map[uint64]int{}
	for tag := 0; tag < 64; tag++ {
		s := tagStreamSeed(seed, tag)
		if prev, dup := seen[s]; dup {
			t.Fatalf("tags %d and %d share payload seed %#x", prev, tag, s)
		}
		seen[s] = tag
	}
}

// TestFrameDeterministic verifies payloads stay pure functions of
// (seed, tag, seq) after the mix change.
func TestFrameDeterministic(t *testing.T) {
	build := func() [][]int {
		ts, err := NewTagSet(lora.DefaultParams(), radio.DefaultLinkBudget(), 3, 20, 100, 7)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]int
		for tag := 0; tag < 3; tag++ {
			for seq := uint64(0); seq < 2; seq++ {
				_, want, err := ts.Frame(tag, seq)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, want)
			}
		}
		return out
	}
	a, b := build(), build()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("payload %d diverged between identical builds", i)
			}
		}
	}
}

// TestFrameMatchesIntNDraws holds Frame's payload to the draws it was
// first written with, a dsp.NewRand generator's IntN over the full
// alphabet, at several spreading factors and every rate. The frame carries
// an equal payload that is its own copy, and Frame allocates twice: the
// frame and one array for both payloads.
func TestFrameMatchesIntNDraws(t *testing.T) {
	for _, sf := range []int{7, 9, 12} {
		for k := 1; k <= sf; k++ {
			p := lora.DefaultParams()
			p.SF, p.K = sf, k
			ts := &TagSet{Params: p, Seed: 7, Tags: []SimTag{{ID: 0}, {ID: 5}}}
			for _, tag := range []int{0, 5} {
				for seq := range uint64(3) {
					f, want, err := ts.Frame(tag, seq)
					if err != nil {
						t.Fatal(err)
					}
					rng := dsp.NewRand(tagStreamSeed(ts.Seed, tag), seq)
					for i, w := range want {
						if ref := rng.IntN(p.ChirpCount()) >> (sf - k); w != ref {
							t.Fatalf("SF%d K=%d tag %d seq %d symbol %d: %d, IntN draw %d", sf, k, tag, seq, i, w, ref)
						}
					}
					if !slices.Equal(f.Payload, want) {
						t.Fatalf("SF%d K=%d: frame payload %v, want %v", sf, k, f.Payload, want)
					}
					want[0]++
					if f.Payload[0] == want[0] {
						t.Fatalf("SF%d K=%d: frame payload aliases the returned one", sf, k)
					}
				}
			}
		}
	}
	ts := testTagSet(t, 2)
	if allocs := testing.AllocsPerRun(20, func() { ts.Frame(1, 3) }); allocs > 2 {
		t.Errorf("Frame: %.1f allocations, want 2", allocs)
	}
}
