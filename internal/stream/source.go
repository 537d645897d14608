package stream

import (
	"context"
	"io"

	"saiyan/internal/flight"
	"saiyan/internal/pipeline"
	"saiyan/internal/sim"
)

// Matcher resolves an extracted window back to scheduled ground truth: it
// receives the window's absolute start sample and returns the transmitting
// tag, the frame's sequence number, and the transmitted payload, or
// ok=false for a window with no known schedule entry (a false detection,
// or truth simply unavailable — live captures have none). The sequence
// number also keys the frame's flight trace ID, so matched windows carry
// their trace from segmentation onward.
type Matcher func(startSamp int64) (tag int, seq uint64, want []int, ok bool)

// Source adapts a chunked capture to the pipeline's pull interface: each
// Next call pushes capture chunks through the Segmenter until a frame
// window pops out, then returns it as a stream-decode job. Segmentation
// thus runs on the pipeline's submission goroutine while earlier windows
// are already demodulating on the worker pool — the two stages overlap.
type Source struct {
	seg    *Segmenter
	chunks []sim.Chunk
	at     int
	match  Matcher
	queue  []pipeline.Job
	done   bool

	matched int
}

// NewSource builds a pipeline source over pre-cut capture chunks. match may
// be nil (no ground truth: every job is submitted unchecked). When
// cfg.Flight is set, every matched window is stamped with its trace ID and
// a segment-stage span lands in the recorder before the job is queued.
func NewSource(cfg Config, chunks []sim.Chunk, match Matcher) (*Source, error) {
	s := &Source{chunks: chunks, match: match}
	seg, err := NewSegmenter(cfg, func(w Window) error {
		j := pipeline.Job{Tag: -1, Env: w.Env, EnvC: w.EnvC, NSymbols: w.NSymbols}
		if s.match != nil {
			if tag, seq, want, ok := s.match(w.Start); ok {
				j.Tag = tag
				j.Want = want
				s.matched++
				if cfg.Flight != nil {
					j.Trace = flight.TraceID(cfg.FlightEpoch, cfg.FlightChannel, tag, seq)
					cfg.Flight.Append(0, flight.Span{
						Trace:    j.Trace,
						Seq:      uint32(seq),
						Epoch:    uint32(cfg.FlightEpoch),
						Tag:      uint16(tag),
						Channel:  uint16(cfg.FlightChannel),
						Stage:    flight.StageSegment,
						Decision: flight.WindowMatched,
						A:        cfg.HuntRSSDBm,
						B:        float64(w.Start),
					})
				}
			}
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

// Next implements pipeline.Source.
func (s *Source) Next() (pipeline.Job, error) {
	for len(s.queue) == 0 {
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
	j := s.queue[0]
	s.queue = s.queue[1:]
	return j, nil
}

// Windows reports how many frame windows the segmenter emitted.
func (s *Source) Windows() int { return s.seg.Windows() }

// Matched reports how many emitted windows resolved to scheduled frames.
func (s *Source) Matched() int { return s.matched }

// SamplesIn reports how many sampler-rate samples were segmented.
func (s *Source) SamplesIn() int64 { return s.seg.SamplesIn() }

// NoiseStats reports the segmenter's calibrated envelope noise statistics.
func (s *Source) NoiseStats() (baseline, sigma float64) { return s.seg.NoiseStats() }

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

// SimMatcher builds a Matcher over a rendered sim.Stream's schedule. Each
// scheduled frame is claimed at most once — a duplicate window for the same
// event goes through unchecked instead of double-counting ground truth.
func SimMatcher(capture *sim.Stream) Matcher {
	claimed := make([]bool, len(capture.Events))
	return func(startSamp int64) (int, uint64, []int, bool) {
		idx, ok := capture.Match(startSamp)
		if !ok || claimed[idx] {
			return 0, 0, nil, false
		}
		claimed[idx] = true
		ev := capture.Events[idx]
		return ev.Tag, ev.Seq, ev.Want, true
	}
}

// Demodulate runs a rendered capture end to end: segmentation on the
// submission goroutine, window decoding on the pipeline's worker pool. The
// capture is delivered in chunkSamples-sized chunks (0 = one chunk); the
// decoded stream and every Stats counter are identical for any worker
// count and any chunk size. Cancelling ctx stops the run between window
// submissions (windows already submitted still decode and are counted); a
// nil ctx behaves like context.Background().
func Demodulate(ctx context.Context, pcfg pipeline.Config, scfg Config, capture *sim.Stream, chunkSamples int) (Stats, error) {
	src, err := NewSource(scfg, capture.Chunks(chunkSamples), SimMatcher(capture))
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
