package loc

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"rfly/internal/geom"
	"rfly/internal/obs"
	"rfly/internal/signal"
	"rfly/internal/stats"
)

// StreamSolver accumulates the SAR matched filter (Eq. 12) incrementally:
// each capture is folded into the coarse grid's per-cell complex partial
// sums as it arrives, so the end-of-mission "solve" collapses to an argmax
// over |sums| plus the usual top-K fine refinement — and a live position
// estimate with error bars is available at any point mid-flight via
// Snapshot.
//
// It is the package's only coarse-grid kernel: the batch solves
// (LocalizeCtx, LocalizeRobustCtx) build a solver over their search
// rectangle, fold the whole aperture in one batch and finish through the
// same finalize step as Snapshot. Snapshot over a stream of measurements
// is therefore bit-identical to the batch solve over the same
// measurements in the same order, with the trajectory built from their
// positions. It holds because per-cell accumulation order is arrival
// order and the row striping of the fold never reorders additions
// within a cell. For the same reason two separately accumulated grids
// must never be merged: float addition is not associative across
// interleavings, so a restore installs a serialized grid verbatim
// (Restore) rather than summing.
type StreamSolver struct {
	cfg    Config
	robust bool
	x0, y0 float64
	res    float64
	cols   int
	rows   int
	k      float64 // phase per meter of one-way distance ×2

	mu   sync.Mutex
	sum  []complex128 // per-cell partial sums, row-major like stats.Heatmap
	traj []geom.Point // every added position, locked or not (the aperture)
	kept []Measurement
	// total counts every capture added; len(kept) is what survived
	// robust rejection.
	total int
	// memo is the last successful Snapshot, taken at memoTotal captures.
	// AddBatch moves total past it; Restore clears it and bumps restores,
	// so a Snapshot still finalizing across a Restore does not store a
	// result for state the solver no longer holds.
	memo      *RobustResult
	memoTotal int
	restores  uint64
}

// NewStreamSolver builds a streaming accumulator whose Snapshot matches
// batch LocalizeCtx. cfg.Region must be set: the lattice is fixed before
// any data arrives, so trajectory-derived bounds are unavailable.
func NewStreamSolver(cfg Config) (*StreamSolver, error) {
	return newStreamSolver(cfg, false)
}

// NewRobustStreamSolver builds a streaming accumulator whose Snapshot
// matches batch LocalizeRobustCtx: carrier-unlocked captures are rejected
// as they are added (they never enter the partial sums) and the reported
// σ is widened by the aperture loss.
func NewRobustStreamSolver(cfg Config) (*StreamSolver, error) {
	return newStreamSolver(cfg, true)
}

func newStreamSolver(cfg Config, robust bool) (*StreamSolver, error) {
	if cfg.Region == nil {
		return nil, fmt.Errorf("loc: streaming solve needs a fixed Region (trajectory bounds are unknown up front)")
	}
	if err := cfg.checkResolution(cfg.Region.X1-cfg.Region.X0, cfg.Region.Y1-cfg.Region.Y0); err != nil {
		return nil, err
	}
	// The coarse lattice is sized by the shared gridCount helper like every
	// other grid in the package: Ceil-based sizing gained or lost a
	// boundary row/column to float error on exact-multiple spans.
	cols := gridCount(cfg.Region.X1-cfg.Region.X0, cfg.CoarseRes)
	rows := gridCount(cfg.Region.Y1-cfg.Region.Y0, cfg.CoarseRes)
	return &StreamSolver{
		cfg:    cfg,
		robust: robust,
		x0:     cfg.Region.X0,
		y0:     cfg.Region.Y0,
		res:    cfg.CoarseRes,
		cols:   cols,
		rows:   rows,
		k:      4 * math.Pi * cfg.Freq / signal.C,
		sum:    make([]complex128, cols*rows),
	}, nil
}

// AddBatch folds a batch of captures into the partial sums, striping the
// grid rows across the worker pool (cfg.Workers, like LocalizeCtx). It
// is safe for concurrent use with Snapshot. The batch is always
// integrated whole: a half-applied batch would leave the accumulator
// matching no measurement prefix, so integration ignores ctx
// cancellation (a batch is microseconds of work); ctx carries the obs
// recorder for the loc.stream.add span.
func (s *StreamSolver) AddBatch(ctx context.Context, meas []Measurement) {
	if len(meas) == 0 {
		return
	}
	ctx, span := obs.StartSpan(ctx, "loc.stream.add")
	defer span.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	add := s.admit(meas)
	span.Int("batch", int64(len(meas))).Int("integrated", int64(len(add))).Int("total", int64(s.total))
	s.fold(context.WithoutCancel(ctx), add)
}

// admit records a batch in the bookkeeping — every position joins the
// aperture, robust rejection keeps unlocked captures out of the kept
// list — and returns what the partial sums integrate: the batch's kept
// captures, scaled to unit amplitude under PhaseOnly (zero-amplitude ones
// dropped). The caller holds s.mu (or owns s outright).
func (s *StreamSolver) admit(meas []Measurement) []Measurement {
	start := len(s.kept)
	for _, m := range meas {
		s.total++
		s.traj = append(s.traj, m.Pos)
		if s.robust && m.Unlocked {
			continue
		}
		s.kept = append(s.kept, m)
	}
	if s.cfg.PhaseOnly {
		return normalizeAmplitudes(s.kept[start:])
	}
	return s.kept[start:]
}

// fold accumulates Eq. 12 for add into the per-cell partial sums — the
// coherent sum of each channel counter-rotated by the round-trip distance
// to the cell center — with grid rows striped across cfg.Workers. Every
// cell adds the batch in order, so the sums are the same bits for any
// worker count or batch chopping. ctx is checked once per row; a
// cancelled fold returns ctx's error with the grid partially integrated.
// The caller holds s.mu (or owns s outright).
func (s *StreamSolver) fold(ctx context.Context, add []Measurement) error {
	if len(add) == 0 {
		return ctx.Err()
	}
	// The loop invariants live in locals: read through s on every cell
	// they measurably slow the kernel.
	sum, cols := s.sum, s.cols
	x0, y0, res, k := s.x0, s.y0, s.res, s.k
	return stripeRows(ctx, s.rows, s.cfg.Workers, func(r int) {
		row := sum[r*cols : (r+1)*cols]
		y := y0 + (float64(r)+0.5)*res
		for c := range row {
			x := x0 + (float64(c)+0.5)*res
			acc := row[c]
			for _, m := range add {
				dx, dy, dz := x-m.Pos.X, y-m.Pos.Y, -m.Pos.Z
				d := math.Sqrt(dx*dx + dy*dy + dz*dz)
				sn, cs := math.Sincos(k * d)
				acc += m.H * complex(cs, sn)
			}
			row[c] = acc
		}
	})
}

// heatmap materializes |partial sum| per cell as the coarse P(x, y) grid.
// The caller holds s.mu (or owns s outright).
func (s *StreamSolver) heatmap() *stats.Heatmap {
	hm := stats.NewHeatmap(s.x0, s.y0, s.res, s.res, s.cols, s.rows)
	for i, z := range s.sum {
		hm.Data[i] = cmplx.Abs(z)
	}
	return hm
}

// Total returns how many measurements have been added (including any a
// robust solver rejected).
func (s *StreamSolver) Total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Kept returns how many measurements survived rejection and entered the
// partial sums' filter chain.
func (s *StreamSolver) Kept() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.kept)
}

// Dims returns the lattice's column and row counts (fixed at
// construction).
func (s *StreamSolver) Dims() (cols, rows int) { return s.cols, s.rows }

// AppendGrid appends the per-cell partial sums to b, for checkpointing,
// and returns the extended slice: row-major like stats.Heatmap, each
// cell its real then imaginary part as little-endian IEEE 754 bits. It
// encodes straight from the live grid under the solver's lock, so a
// checkpoint costs no copy of the grid.
func (s *StreamSolver) AppendGrid(b []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, z := range s.sum {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(z)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(z)))
	}
	return b
}

// Restore installs a previously serialized accumulator: the grid is taken
// verbatim (never re-summed — float addition is not associative across
// interleavings) and the bookkeeping (trajectory, kept list, counts) is
// rebuilt by replaying the measurement history through admit, the same
// filter Add applies. history must be the full, ordered list of
// measurements the serialized grid was accumulated from.
func (s *StreamSolver) Restore(sum []complex128, history []Measurement) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(sum) != s.cols*s.rows {
		return fmt.Errorf("loc: restored grid has %d cells, lattice wants %d×%d", len(sum), s.cols, s.rows)
	}
	s.sum = append(s.sum[:0], sum...)
	s.traj = s.traj[:0]
	s.kept = s.kept[:0]
	s.total = 0
	s.memo = nil
	s.restores++
	s.admit(history)
	return nil
}

// Snapshot finalizes the current stream without consuming it: the partial
// sums become a heatmap (one |·| per cell) and go through the same
// finalize step as the batch solves. Later batches keep accumulating
// into the solver, never into a returned result.
//
// A Snapshot at the capture count of the last successful one returns
// that same *RobustResult without solving again (the end-of-mission
// result right after the last live estimate costs nothing). A result may
// therefore be returned more than once and is shared: callers must treat
// it, its Result, candidates and heatmap as read-only. Errors are never
// memoized, so a cancelled or failed Snapshot is retried in full.
func (s *StreamSolver) Snapshot(ctx context.Context) (*RobustResult, error) {
	ctx, span := obs.StartSpan(ctx, "loc.stream.snapshot")
	defer span.End()
	s.mu.Lock()
	total, restores := s.total, s.restores
	if s.memo != nil && s.memoTotal == total {
		res := s.memo
		s.mu.Unlock()
		span.Int("total", int64(total)).Int("kept", int64(res.Kept))
		return res, nil
	}
	kept := append([]Measurement(nil), s.kept...)
	traj := geom.Trajectory{Points: append([]geom.Point(nil), s.traj...)}
	hm := s.heatmap()
	s.mu.Unlock()
	span.Int("total", int64(total)).Int("kept", int64(len(kept)))
	res, err := s.finalize(ctx, hm, kept, total, traj)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.restores == restores && s.total == total {
		s.memo, s.memoTotal = res, total
	}
	s.mu.Unlock()
	return res, nil
}

// finalize is the shared tail of every 2D solve, batch and streaming:
// the aperture checks, peak extraction over the coarse heatmap,
// refineAndPick, and the σ error bars from Uncertainty — widened by
// sqrt(total/kept) for a robust solver, a no-op factor of 1 otherwise.
// traj is the flight the §5.2 rule measures candidates against.
func (s *StreamSolver) finalize(ctx context.Context, hm *stats.Heatmap, kept []Measurement, total int, traj geom.Trajectory) (*RobustResult, error) {
	if s.robust && len(kept) < 3 {
		return nil, fmt.Errorf("loc: only %d/%d measurements survived lock rejection", len(kept), total)
	}
	if len(kept) < 3 {
		return nil, fmt.Errorf("loc: need at least 3 measurements, have %d", len(kept))
	}
	// An aperture with no channel energy (every H zero) leaves a flat
	// zero grid whose "peak" is an arbitrary corner cell: fail rather
	// than report it as a location.
	if _, _, global := hm.Peak(); global <= 0 {
		return nil, fmt.Errorf("loc: empty projection (no channel energy in %d measurements)", len(kept))
	}
	meas := kept
	if s.cfg.PhaseOnly {
		meas = normalizeAmplitudes(meas)
	}
	peaks := localMaxima(hm, s.cfg.PeakThreshold, s.cfg.MaxCandidates,
		suppressRadiusCells(s.cfg.Freq, s.cfg.CoarseRes))
	res, err := refineAndPick(ctx, meas, traj, s.cfg, hm, peaks)
	if err != nil {
		return nil, err
	}
	// Uncertainty gets the pre-normalization kept list (it re-normalizes
	// internally under PhaseOnly).
	sx, sy := Uncertainty(kept, res, s.cfg)
	widen := math.Sqrt(float64(total) / float64(len(kept)))
	return &RobustResult{
		Result: res,
		Total:  total,
		Kept:   len(kept),
		SigmaX: sx * widen,
		SigmaY: sy * widen,
	}, nil
}
