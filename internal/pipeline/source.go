package pipeline

import (
	"context"
	"fmt"
	"io"

	"saiyan/internal/lora"
	"saiyan/internal/sim"
	"saiyan/internal/trace"
)

// Source is a pull-based frame supplier: the pipeline's Run loop asks it
// for one job at a time and submits them in order. Next returns io.EOF
// once the workload is exhausted; any other error aborts the run. Sources
// are pulled from a single goroutine and need not be safe for concurrent
// use.
//
// Two implementations ship with the package: NewTagSetSource generates
// live simulated traffic, and NewTraceSource replays a recorded trace.
// The same worker pool, calibration cache, and Stats machinery demodulate
// both identically.
type Source interface {
	Next() (Job, error)
}

// runBatch is the submission granularity of Run: large enough to amortize
// channel operations, small enough to keep every worker fed near the tail.
const runBatch = 8

// Run pulls src dry through the pipeline with Collect, discarding the
// per-frame results (the aggregate Stats and any attached record tee
// capture the outcome), and returns the final Stats. Every frame pulled
// from the source before a *source* error still completes: it is counted
// in the returned Stats and captured by the tee. Frames that were pulled
// but could not be submitted — a Submit failure means someone called
// Drain concurrently — are reported in the returned error together with
// their count, so no pulled frame ever disappears silently.
//
// Cancelling ctx stops the run between source pulls: frames already pulled
// are still submitted and complete (they are counted in the returned
// Stats), and Run returns ctx's error. A nil ctx behaves like
// context.Background().
func (p *Pipeline) Run(ctx context.Context, src Source) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	dropped := 0
	st, err := p.Collect(func() error {
		var srcErr error
		batch := make([]Job, 0, runBatch)
		for {
			if err := ctx.Err(); err != nil {
				srcErr = err
				break
			}
			j, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				srcErr = fmt.Errorf("pipeline: source: %w", err)
				break
			}
			batch = append(batch, j)
			if len(batch) == runBatch {
				if err := p.Submit(batch...); err != nil {
					dropped += len(batch)
					return err
				}
				batch = batch[:0]
			}
		}
		// Flush frames pulled before a source error too — work the source
		// handed over is real and belongs in the capture. An empty batch
		// submits nothing.
		if err := p.Submit(batch...); err != nil {
			dropped += len(batch)
			if srcErr == nil {
				srcErr = err
			}
		}
		return srcErr
	}, nil)
	if dropped > 0 {
		err = fmt.Errorf("%w (%d frames pulled from the source were dropped unprocessed)", err, dropped)
	}
	return st, err
}

// tagSetSource adapts a live sim.Traffic schedule to the Source interface.
type tagSetSource struct {
	tr *sim.Traffic
}

// NewTagSetSource schedules framesPerTag frames from every tag of ts,
// round-robin, as live generated traffic.
func NewTagSetSource(ts *sim.TagSet, framesPerTag int) (Source, error) {
	tr, err := ts.NewTraffic(framesPerTag)
	if err != nil {
		return nil, err
	}
	return &tagSetSource{tr: tr}, nil
}

func (s *tagSetSource) Next() (Job, error) {
	tag, _, frame, want, err := s.tr.Next()
	if err != nil {
		return Job{}, err // io.EOF passes through unchanged
	}
	return Job{Tag: tag.ID, Frame: frame, RSSDBm: tag.RSSDBm, Want: want}, nil
}

// traceSource replays records out of a trace.Reader, rebuilding each frame
// from its recorded payload and pinning the recorded noise shard so the
// demodulator sees the identical signal.
type traceSource struct {
	r      *trace.Reader
	params lora.Params
}

// NewTraceSource adapts an open trace to the Source interface. The
// reader's header supplies the LoRa parameters; pair it with a pipeline
// built from the same header (see Replay) for bit-exact reproduction.
func NewTraceSource(r *trace.Reader) Source {
	return &traceSource{r: r, params: r.Header().Demod.Params}
}

func (s *traceSource) Next() (Job, error) {
	rec, err := s.r.Next()
	if err != nil {
		return Job{}, err // io.EOF, ErrTruncated, ErrCorrupt pass through
	}
	return jobFromRecord(s.params, rec)
}

// jobFromRecord rebuilds the pipeline job a trace record describes,
// pinning the recorded noise shard so the demodulator sees the identical
// signal. Replay and VerifyReplay share this single conversion so they can
// never demodulate different streams from the same record.
func jobFromRecord(params lora.Params, rec *trace.Record) (Job, error) {
	frame, err := lora.NewFrame(params, trace.SymbolsFromU16(rec.Payload))
	if err != nil {
		return Job{}, fmt.Errorf("rebuilding frame %d: %w", rec.Seq, err)
	}
	return Job{
		Tag:         rec.Tag,
		Frame:       frame,
		RSSDBm:      rec.RSSDBm,
		Want:        trace.SymbolsFromU16(rec.Want),
		NoiseSeeded: true,
		NoiseSeed:   rec.NoiseSeed,
	}, nil
}
