package capture

import (
	"context"
	"fmt"

	"rfly/internal/loc"
	"rfly/internal/obs"
)

// Deterministic mission replay: reconstruct the measurement stream from
// the capture log alone — no sim, no runtime — and re-feed the
// streaming solver. Replayed at the live settings the solve is
// bit-identical to the mission's, because (a) the log's segments are
// exactly the per-sortie-commit batches the engine fed its solver, in
// order, and (b) loc.StreamSolver accumulates each grid cell in
// measurement order regardless of batch chopping or worker count (the
// equivalence loc's TestParallelLocalizeBitIdentical gates). Replayed with different
// grid/robustness settings it answers the paper's Fig. 12 question —
// how would this flight have solved under other parameters — in
// milliseconds instead of a full sim re-run.

// ReplayOptions override the live solve parameters recorded in the log
// header. Zero values keep the live defaults.
type ReplayOptions struct {
	// CoarseRes/FineRes override the grid steps (meters).
	CoarseRes float64
	FineRes   float64
	// Workers overrides the grid-search pool (0 = GOMAXPROCS); results
	// are bit-identical for every worker count.
	Workers int
	// Robust selects the lock-rejecting solver the live engine runs.
	// Set it (LiveOptions does) to match a mission solve bit for bit;
	// clear it to integrate every capture, unlocked ones included.
	Robust bool
	// Region, when non-nil, overrides the search rectangle.
	Region *loc.Region
}

// LiveOptions are the options that reproduce the live mission solve
// exactly: robust, default grid, header region.
func LiveOptions() ReplayOptions { return ReplayOptions{Robust: true} }

// ReplayResult is a replayed solve plus the log provenance it came from.
type ReplayResult struct {
	*loc.RobustResult
	Header   Header
	Segments int
	Records  uint64
}

// Config resolves the localizer configuration a replay of this log
// would use: the live defaults rebuilt from the header, with opts
// applied on top.
func (h Header) Config(opts ReplayOptions) loc.Config {
	cfg := loc.DefaultConfig(h.ChannelHz)
	region := h.Region
	if opts.Region != nil {
		region = *opts.Region
	}
	cfg.Region = &region
	if opts.CoarseRes > 0 {
		cfg.CoarseRes = opts.CoarseRes
	}
	if opts.FineRes > 0 {
		cfg.FineRes = opts.FineRes
	}
	if opts.Workers > 0 {
		cfg.Workers = opts.Workers
	}
	return cfg
}

// Replay re-solves a mission from its capture log bytes. The stream is
// fed segment by segment — the live commit boundaries — and finalized
// once; the whole solve runs under a "replay.solve" span.
func Replay(ctx context.Context, data []byte, opts ReplayOptions) (*ReplayResult, error) {
	ctx, span := obs.StartSpan(ctx, "replay.solve")
	defer span.End()
	r, err := OpenLog(data)
	if err != nil {
		return nil, err
	}
	span.Int("segments", int64(r.NumSegments())).
		Int("records", int64(r.Records())).
		Bool("robust", opts.Robust)
	cfg := r.Header().Config(opts)
	var solver *loc.StreamSolver
	if opts.Robust {
		solver, err = loc.NewRobustStreamSolver(cfg)
	} else {
		solver, err = loc.NewStreamSolver(cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("capture: replay solver: %w", err)
	}
	// One scratch batch reused across segments: the zero-copy record
	// views feed it in place, so the replay allocates per segment, not
	// per record.
	var batch []loc.Measurement
	for i := 0; i < r.NumSegments(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("capture: replay abandoned at segment %d/%d: %w",
				i, r.NumSegments(), err)
		}
		seg := r.Segment(i)
		batch = batch[:0]
		for j := 0; j < seg.Count(); j++ {
			batch = append(batch, seg.Record(j).Measurement())
		}
		solver.AddBatch(ctx, batch)
	}
	snap, err := solver.Snapshot(ctx)
	if err != nil {
		return nil, fmt.Errorf("capture: replay solve: %w", err)
	}
	return &ReplayResult{
		RobustResult: snap,
		Header:       r.Header(),
		Segments:     r.NumSegments(),
		Records:      r.Records(),
	}, nil
}
