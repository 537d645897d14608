package stream

import (
	"context"
	"fmt"

	"saiyan/internal/pipeline"
	"saiyan/internal/sim"
)

// Receiver is the receive chain over one rendered capture: a Segmenter
// whose windows it resolves against the capture's own schedule. A window
// that resolves to a scheduled frame claims it and carries the frame's tag
// and payload for scoring; each frame is claimed at most once, so a
// duplicate window, like one that resolves to no frame, goes through
// unmatched instead of double-counting ground truth. A Receiver is not
// safe for concurrent use.
type Receiver struct {
	*Segmenter // Push, Flush, SamplesIn and NoiseStats
	capture    *sim.Stream
	claimed    []bool
	emitJob    func(j pipeline.Job, event int, start int64) error

	matched, unmatched int
}

// NewReceiver builds a receiver over capture. For every window it calls
// emit with the window's stream-decode job, the index into capture.Events
// of the frame the window claimed (-1 for none; Tag and Want are set only
// on a claim), and the window's absolute sampler-rate start. A zero
// cfg.PayloadSymbols takes the capture's payload length; a non-zero one
// must equal it.
func NewReceiver(cfg Config, capture *sim.Stream, emit func(j pipeline.Job, event int, start int64) error) (*Receiver, error) {
	if cfg.PayloadSymbols == 0 {
		cfg.PayloadSymbols = capture.PayloadSymbols
	} else if capture.PayloadSymbols != 0 && cfg.PayloadSymbols != capture.PayloadSymbols {
		return nil, fmt.Errorf("stream: payload length %d, but the capture's frames carry %d symbols", cfg.PayloadSymbols, capture.PayloadSymbols)
	}
	r := &Receiver{capture: capture, claimed: make([]bool, len(capture.Events)), emitJob: emit}
	seg, err := NewSegmenter(cfg, r.window)
	if err != nil {
		return nil, err
	}
	r.Segmenter = seg
	return r, nil
}

// window is the segmenter's emit callback: the claim rule.
func (r *Receiver) window(w Window) error {
	j := pipeline.Job{Tag: -1, Env: w.Env, EnvC: w.EnvC, Release: w.Release, NSymbols: w.NSymbols}
	idx, ok := r.capture.Match(w.Start)
	if ok && !r.claimed[idx] {
		r.claimed[idx] = true
		j.Tag, j.Want = r.capture.Events[idx].Tag, r.capture.Events[idx].Want
		r.matched++
	} else {
		idx = -1
		r.unmatched++
	}
	return r.emitJob(j, idx, w.Start)
}

// Run pushes the whole capture in chunkSamples-sized chunks (0 = one
// chunk) and flushes it, checking ctx before each chunk.
func (r *Receiver) Run(ctx context.Context, chunkSamples int) error {
	for _, c := range r.capture.Chunks(chunkSamples) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := r.Push(c.Env, c.EnvC); err != nil {
			return err
		}
	}
	return r.Flush()
}

// Windows reports how many frame windows the segmenter emitted.
func (r *Receiver) Windows() int { return r.matched + r.unmatched }

// Matched reports how many windows claimed a scheduled frame.
func (r *Receiver) Matched() int { return r.matched }

// Unmatched reports how many windows claimed none.
func (r *Receiver) Unmatched() int { return r.unmatched }
