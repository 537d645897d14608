package sim

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"

	"saiyan/internal/lora"
	"saiyan/internal/radio"
)

// SimTag is one simulated backscatter tag in a gateway deployment.
type SimTag struct {
	ID        int
	DistanceM float64
	RSSDBm    float64
}

// TagSet generates deterministic downlink traffic for a population of
// simulated tags spread over a distance range. Tag placement and every
// frame payload are pure functions of the seed, the tag index, and the
// frame sequence number, so a multi-tag workload replays bit-for-bit no
// matter how generation interleaves with demodulation.
type TagSet struct {
	Params lora.Params
	Seed   uint64
	Tags   []SimTag
}

// NewTagSet places n tags geometrically between minM and maxM from the
// access point (each distance ring a constant ratio farther, matching how
// path loss is log-distance) and fixes their RSS from the link budget.
func NewTagSet(p lora.Params, budget radio.LinkBudget, n int, minM, maxM float64, seed uint64) (*TagSet, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("sim: tag count %d < 1", n)
	}
	if minM <= 0 || maxM < minM {
		return nil, fmt.Errorf("sim: distance range [%g, %g] m invalid", minM, maxM)
	}
	ts := &TagSet{Params: p, Seed: seed, Tags: make([]SimTag, n)}
	for i := range ts.Tags {
		frac := 0.0
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		d := minM * math.Pow(maxM/minM, frac)
		ts.Tags[i] = SimTag{ID: i, DistanceM: d, RSSDBm: budget.RSSDBm(d)}
	}
	return ts, nil
}

// tagStreamSeed derives the payload RNG seed for one tag through a
// splitmix64-style finalizer. A plain XOR with the scaled tag index is not
// enough: for tag 0 it degenerates to the raw set seed, which is exactly the
// first word the demodulation pipeline feeds its per-frame noise shards
// (dsp.NewRand(cfg.Seed, frameSeq)) — tag 0's payloads would then be drawn
// from the identical PCG stream as their own noise realization whenever the
// seeds match. The finalizer's avalanche guarantees every tag, including
// tag 0, lands on a seed unrelated to the raw set seed.
func tagStreamSeed(seed uint64, tag int) uint64 {
	z := seed ^ (uint64(tag)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// TagByID finds the tag with the given ID, or nil. IDs are global: a
// TagSet built by NewTagSet uses 0..n-1, but a hand-assembled subset (a
// gateway channel's current population, say) keeps the IDs of the full
// deployment, so payload streams follow the tag wherever it is scheduled.
func (ts *TagSet) TagByID(id int) *SimTag {
	for i := range ts.Tags {
		if ts.Tags[i].ID == id {
			return &ts.Tags[i]
		}
	}
	return nil
}

// Frame builds frame number seq for one tag ID: a full downlink frame with
// a deterministic pseudo-random payload of lora.DefaultPayloadSymbols
// symbols. It returns the frame and the payload ground truth.
//
// The underlying data is a pure function of (Seed, tag, seq) alone: each
// symbol is cut from a full-alphabet (2^SF) data word drawn independently
// of the coding rate, then encoded as the word's top K bits. A frame
// rebuilt through a different subset TagSet — or retransmitted after a
// rate change — therefore carries the same data re-encoded at the set's
// current rate, exactly as a real tag re-encodes its buffered packet.
func (ts *TagSet) Frame(tag int, seq uint64) (*lora.Frame, []int, error) {
	if ts.TagByID(tag) == nil {
		return nil, nil, fmt.Errorf("sim: no tag with ID %d in the set", tag)
	}
	if err := ts.Params.Validate(); err != nil {
		return nil, nil, err
	}
	// The frame keeps its own copy of the payload, as lora.NewFrame's
	// does; one array backs both.
	n := lora.DefaultPayloadSymbols
	buf := make([]int, 2*n)
	want := buf[:n:n]
	ts.payload(want, tag, seq)
	f := &lora.Frame{Params: ts.Params, Payload: buf[n:]}
	copy(f.Payload, want)
	return f, want, nil
}

// payload fills dst with the data Frame documents for frame seq of tag.
// ts.Params must be valid.
func (ts *TagSet) payload(dst []int, tag int, seq uint64) {
	// dsp.NewRand's generator, seeded the same way, without its
	// allocation.
	pcg := rand.NewPCG(tagStreamSeed(ts.Seed, tag), seq)
	mask := uint64(ts.Params.ChirpCount() - 1)
	for i := range dst {
		// ChirpCount is a power of two, so this is rand.Rand.IntN's draw:
		// the low bits of exactly one PCG step per symbol regardless of K,
		// so the data-word stream is rate-independent.
		dst[i] = int(pcg.Uint64()&mask) >> (ts.Params.SF - ts.Params.K)
	}
}

// Traffic is a pull-based round-robin schedule over a TagSet: frame 0 from
// every tag in placement order, then frame 1, and so on for framesPerTag
// rounds — the delivery order of a slotted downlink schedule. It is the
// live counterpart of a trace.Reader-backed source: both feed the
// demodulation pipeline one frame at a time.
type Traffic struct {
	ts           *TagSet
	framesPerTag int
	at           int
}

// NewTraffic builds the schedule. framesPerTag must be positive.
func (ts *TagSet) NewTraffic(framesPerTag int) (*Traffic, error) {
	if framesPerTag < 1 {
		return nil, fmt.Errorf("sim: frames per tag %d < 1", framesPerTag)
	}
	return &Traffic{ts: ts, framesPerTag: framesPerTag}, nil
}

// Len returns the total number of frames the schedule will deliver.
func (tr *Traffic) Len() int { return len(tr.ts.Tags) * tr.framesPerTag }

// Next returns the next scheduled frame: the transmitting tag, the frame's
// per-tag sequence number, the frame itself, and the payload ground truth.
// It returns io.EOF once the schedule is exhausted.
func (tr *Traffic) Next() (SimTag, uint64, *lora.Frame, []int, error) {
	if tr.at >= tr.Len() {
		return SimTag{}, 0, nil, nil, io.EOF
	}
	n := len(tr.ts.Tags)
	round := uint64(tr.at / n)
	tag := tr.ts.Tags[tr.at%n]
	tr.at++
	frame, want, err := tr.ts.Frame(tag.ID, round)
	if err != nil {
		return SimTag{}, 0, nil, nil, err
	}
	return tag, round, frame, want, nil
}
