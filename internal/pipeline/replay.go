package pipeline

import (
	"context"
	"fmt"
	"io"

	"saiyan/internal/trace"
)

// ConfigFromHeader rebuilds the pipeline configuration a trace was
// recorded under: same demodulator chain, same seed. Workers is left zero
// (one per CPU) — worker count never affects the decoded stream. A header
// whose calibration quantum is neither absent nor the pipeline's 1 dB is
// refused: its threshold table cannot be rebuilt, so it cannot replay
// bit-exactly.
func ConfigFromHeader(h trace.Header) (Config, error) {
	if q := h.CalibrationQuantumDB; q != 0 && q != calibrationQuantumDB {
		return Config{}, fmt.Errorf("pipeline: trace calibrated per %g dB, not 1 dB: cannot replay bit-exactly", q)
	}
	return Config{Demod: h.Demod, Seed: h.Seed}, nil
}

// Replay re-demodulates every record of an open trace through a fresh
// pipeline built from the trace's own header, returning the aggregate
// Stats. workers <= 0 uses one worker per CPU. The decoded stream is
// bit-identical to the recording run for any worker count, because every
// record pins its noise shard and calibration is seeded from the header.
func Replay(r *trace.Reader, workers int) (Stats, error) {
	cfg, err := ConfigFromHeader(r.Header())
	if err != nil {
		return Stats{}, err
	}
	cfg.Workers = max(workers, 0)
	cfg.DiscardResults = true
	p, err := New(cfg)
	if err != nil {
		return Stats{}, err
	}
	return p.Run(context.Background(), NewTraceSource(r))
}

// VerifyReplay replays an open trace and compares every decode against the
// decisions recorded in it, returning the aggregate Stats and the number
// of frames whose outcome (detection flag or decoded symbols) diverged.
// Records without recorded decisions are replayed but not compared.
func VerifyReplay(r *trace.Reader, workers int) (Stats, int, error) {
	cfg, err := ConfigFromHeader(r.Header())
	if err != nil {
		return Stats{}, 0, err
	}
	cfg.Workers = max(workers, 0)
	// Drain the trace up front: verification needs the recorded decisions
	// side by side with the replayed ones.
	var recs []*trace.Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Stats{}, 0, err
		}
		// Verification compares decisions, not samples; drop the bulky
		// optional sections so memory stays O(frames) even for traces
		// recorded with sample capture on.
		rec.Traj, rec.Env = nil, nil
		recs = append(recs, rec)
	}

	p, err := New(cfg)
	if err != nil {
		return Stats{}, 0, err
	}
	params := r.Header().Demod.Params
	results := make([]Result, len(recs))
	st, err := p.Collect(func() error {
		for _, rec := range recs {
			j, err := jobFromRecord(params, rec)
			if err != nil {
				return err
			}
			if err := p.Submit(j); err != nil {
				return err
			}
		}
		return nil
	}, func(res Result) {
		if res.Seq < uint64(len(results)) {
			results[res.Seq] = res
		}
	})
	if err != nil {
		return Stats{}, 0, err
	}

	mismatches := 0
	for i, rec := range recs {
		if !rec.HasDecoded {
			continue
		}
		if !replayMatches(rec, results[i]) {
			mismatches++
		}
	}
	return st, mismatches, nil
}

// replayMatches reports whether a replayed result reproduces the recorded
// decisions bit-exactly.
func replayMatches(rec *trace.Record, res Result) bool {
	if res.Err != nil || res.Detected != rec.Detected {
		return false
	}
	if len(res.Symbols) != len(rec.Decoded) {
		return false
	}
	for i, s := range res.Symbols {
		if uint16(s) != rec.Decoded[i] {
			return false
		}
	}
	return true
}
