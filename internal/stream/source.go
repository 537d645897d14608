package stream

import (
	"context"
	"io"

	"saiyan/internal/pipeline"
	"saiyan/internal/sim"
)

// Source adapts a chunked capture to the pipeline's pull interface: each
// Next call pushes capture chunks through the Segmenter until a frame
// window pops out, then returns it as a stream-decode job. Segmentation
// thus runs on the pipeline's submission goroutine while earlier windows
// are already demodulating on the worker pool — the two stages overlap.
type Source struct {
	seg    *Segmenter
	chunks []sim.Chunk
	at     int
	queue  []pipeline.Job // emitted windows; queue[head:] not yet handed out
	head   int
	done   bool

	matched int
}

// NewSource builds a pipeline source over a rendered capture, delivered in
// chunkSamples-sized chunks (0 = one chunk). Each extracted window is
// matched against the capture's own schedule: a window that resolves to a
// scheduled frame carries the frame's tag and payload for scoring. Each
// frame is claimed at most once — a duplicate window for the same frame
// goes through unchecked instead of double-counting ground truth.
func NewSource(cfg Config, capture *sim.Stream, chunkSamples int) (*Source, error) {
	s := &Source{chunks: capture.Chunks(chunkSamples)}
	claimed := make([]bool, len(capture.Events))
	seg, err := NewSegmenter(cfg, func(w Window) error {
		j := pipeline.Job{Tag: -1, Env: w.Env, EnvC: w.EnvC, Release: w.Release, NSymbols: w.NSymbols}
		if idx, ok := capture.Match(w.Start); ok && !claimed[idx] {
			claimed[idx] = true
			j.Tag, j.Want = capture.Events[idx].Tag, capture.Events[idx].Want
			s.matched++
		}
		s.queue = append(s.queue, j)
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.seg = seg
	return s, nil
}

// Next implements pipeline.Source. It pops the queue by head index, clears
// each popped job so the queue pins no window, and refills it in place.
func (s *Source) Next() (pipeline.Job, error) {
	for s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
		if s.at < len(s.chunks) {
			c := s.chunks[s.at]
			s.at++
			if err := s.seg.Push(c.Env, c.EnvC); err != nil {
				return pipeline.Job{}, err
			}
			continue
		}
		if !s.done {
			s.done = true
			if err := s.seg.Flush(); err != nil {
				return pipeline.Job{}, err
			}
			continue
		}
		return pipeline.Job{}, io.EOF
	}
	j := s.queue[s.head]
	s.queue[s.head] = pipeline.Job{}
	s.head++
	return j, nil
}

// Windows reports how many frame windows the segmenter emitted.
func (s *Source) Windows() int { return s.seg.Windows() }

// Matched reports how many emitted windows resolved to scheduled frames.
func (s *Source) Matched() int { return s.matched }

// SamplesIn reports how many sampler-rate samples were segmented.
func (s *Source) SamplesIn() int64 { return s.seg.SamplesIn() }

// Stats is the outcome of a continuous-capture demodulation run: the
// pipeline aggregate plus segmentation-level accounting. JSON field names
// (including the embedded pipeline.Stats fields, which flatten into the
// same object) are part of the wire protocol's stable metrics schema.
type Stats struct {
	pipeline.Stats
	// FramesScheduled is how many frames the capture's schedule carries.
	FramesScheduled int `json:"frames_scheduled"`
	// WindowsEmitted is how many candidate windows segmentation produced.
	WindowsEmitted int `json:"windows_emitted"`
	// WindowsMatched is how many windows resolved to scheduled frames.
	WindowsMatched int `json:"windows_matched"`
	// SamplesIn is the sampler-rate capture length segmented.
	SamplesIn int64 `json:"samples_in"`
}

// Recovery is the end-to-end frame recovery ratio: scheduled frames that
// were found, matched, and decoded without symbol error.
func (s Stats) Recovery() float64 {
	if s.FramesScheduled == 0 {
		return 0
	}
	return float64(s.FramesCorrect) / float64(s.FramesScheduled)
}

// SamplesPerSec is the segmentation throughput over the run.
func (s Stats) SamplesPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.SamplesIn) / s.Elapsed.Seconds()
}

// Demodulate runs a rendered capture end to end: segmentation on the
// submission goroutine, window decoding on the pipeline's worker pool. The
// capture is delivered in chunkSamples-sized chunks (0 = one chunk); the
// decoded stream and every Stats counter are identical for any worker
// count and any chunk size. Cancelling ctx stops the run between window
// submissions (windows already submitted still decode and are counted); a
// nil ctx behaves like context.Background().
func Demodulate(ctx context.Context, pcfg pipeline.Config, scfg Config, capture *sim.Stream, chunkSamples int) (Stats, error) {
	src, err := NewSource(scfg, capture, chunkSamples)
	if err != nil {
		return Stats{}, err
	}
	p, err := pipeline.New(pcfg)
	if err != nil {
		return Stats{}, err
	}
	st, err := p.Run(ctx, src)
	return Stats{
		Stats:           st,
		FramesScheduled: len(capture.Events),
		WindowsEmitted:  src.Windows(),
		WindowsMatched:  src.Matched(),
		SamplesIn:       src.SamplesIn(),
	}, err
}
