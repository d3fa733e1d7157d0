// Package loc implements RFly's through-relay localization (§5): phase
// disentanglement of the two half-links via the relay-embedded reference
// RFID (Eq. 10), SAR-style non-linear projection over the drone's
// trajectory (Eq. 12) with a coarse grid and fine refinement, the
// nearest-peak-to-trajectory multipath rule (§5.2), a 3D extension, and
// the RSSI-based baseline of §7.3.
package loc

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"rfly/internal/geom"
	"rfly/internal/obs"
	"rfly/internal/signal"
	"rfly/internal/stats"
)

// Measurement is one through-relay channel capture: where the relay was
// (OptiTrack-measured) and the complex channel the reader estimated for a
// tag at that instant.
type Measurement struct {
	Pos geom.Point
	H   complex128
	// Unlocked marks a capture taken while the relay's carrier lock was
	// degraded (mid-re-lock, or with residual CFO): its phase is
	// decorrelated from the geometry and integrating it only adds noise.
	// LocalizeRobustCtx drops these; plain LocalizeCtx ignores the flag.
	Unlocked bool
}

// Disentangle implements Eq. 10 for one trajectory point: dividing the
// target tag's channel by the relay-embedded reference tag's channel
// cancels the reader→relay half-link (including all its multipath) and
// the relay hardware constant, leaving only the relay→tag half-link.
//
// Pose and the Unlocked flag ride from the target capture. A reference
// channel too weak to divide by yields a zero channel: the point then
// contributes nothing to the matched filter rather than exploding.
func Disentangle(target, reference Measurement) Measurement {
	var h complex128
	if cmplx.Abs(reference.H) >= 1e-15 {
		h = target.H / reference.H
	}
	return Measurement{Pos: target.Pos, H: h, Unlocked: target.Unlocked}
}

// Config parameterizes the SAR localizer.
type Config struct {
	// Freq is the carrier used in the projection. Per §5.2 the reader may
	// use f even though the isolated half-link was measured at f2, because
	// the relay keeps (f−f2)/f below 1%.
	Freq float64
	// CoarseRes / FineRes are the grid steps of the coarse search and
	// the fine refinement around each coarse peak (meters).
	CoarseRes float64
	FineRes   float64
	// Margin extends the search region beyond the trajectory bounds
	// (meters); the tag must lie within it.
	Margin float64
	// Region, when non-nil, overrides the search area entirely. A purely
	// collinear (1D) trajectory cannot distinguish a tag from its mirror
	// image across the flight line — the matched filter is exactly
	// symmetric — so deployments constrain the search to the known side
	// of the aisle (the paper's Fig. 6 flights do the same: the robot
	// skirts the region's edge and tags lie on one side).
	Region *Region
	// PeakThreshold keeps candidate peaks at least this fraction of the
	// global maximum for the multipath rule.
	PeakThreshold float64
	// MaxCandidates bounds how many coarse peaks are refined.
	MaxCandidates int
	// MinPeakSeparation distinguishes a true multipath ghost from a
	// sidelobe of the main peak: the nearest-to-trajectory rule only
	// considers candidates at least this far (meters) from the global
	// maximum. Reflector ghosts sit meters away (their path detour is
	// macroscopic); sidelobes cluster within a beamwidth of the main lobe,
	// where the global maximum is the better estimate.
	MinPeakSeparation float64
	// PhaseOnly normalizes each measurement to unit amplitude before the
	// projection: Eq. 12 then weights every trajectory point equally
	// instead of letting the nearest (strongest) captures dominate. This
	// trades noise robustness (strong captures are the cleanest) for
	// aperture utilization; the ablation bench quantifies the trade.
	PhaseOnly bool
	// Workers bounds the grid-search worker pool: 0 (the default) uses
	// GOMAXPROCS, 1 forces the serial path. Results are bit-identical for
	// every worker count (see parallel.go); the knob exists for the perf
	// harness's serial-vs-parallel comparison and for embedding in an
	// already-saturated host.
	Workers int
}

// DefaultConfig returns the reproduction's localizer settings.
func DefaultConfig(freq float64) Config {
	return Config{
		Freq:              freq,
		CoarseRes:         0.10,
		FineRes:           0.01,
		Margin:            4.0,
		PeakThreshold:     0.80,
		MaxCandidates:     6,
		MinPeakSeparation: 1.0,
	}
}

// Region is an axis-aligned XY search rectangle.
type Region struct {
	X0, Y0, X1, Y1 float64
}

// searchBounds resolves the search rectangle for a config and trajectory.
func (cfg Config) searchBounds(traj geom.Trajectory) (x0, y0, x1, y1 float64) {
	if cfg.Region != nil {
		return cfg.Region.X0, cfg.Region.Y0, cfg.Region.X1, cfg.Region.Y1
	}
	x0, y0, x1, y1 = traj.Bounds()
	return x0 - cfg.Margin, y0 - cfg.Margin, x1 + cfg.Margin, y1 + cfg.Margin
}

// maxLatticePoints bounds every lattice a solve allocates or scans, so a
// hostile resolution (a replay request's grid, say) cannot ask for
// billions of cells; the figures and tests build at most ~22k points.
const maxLatticePoints = 1 << 20

// checkResolution validates cfg's grid steps for a search over spans:
// both positive, and neither the coarse lattice over the spans nor the
// fine ±CoarseRes window around a peak (one axis per span) above
// maxLatticePoints. Counting in float64 rejects a step that would
// overflow gridCount's int conversion, or a NaN, instead of wrapping.
func (cfg Config) checkResolution(spans ...float64) error {
	if cfg.CoarseRes <= 0 || cfg.FineRes <= 0 {
		return fmt.Errorf("loc: non-positive grid resolution")
	}
	coarse, fine := 1.0, 1.0
	for _, span := range spans {
		coarse *= math.Floor((math.Max(span, 0)+1e-9*cfg.CoarseRes)/cfg.CoarseRes) + 1
		fine *= math.Floor((2*cfg.CoarseRes+1e-9*cfg.FineRes)/cfg.FineRes) + 1
	}
	if !(coarse <= maxLatticePoints) {
		return fmt.Errorf("loc: coarse lattice of %.3g points exceeds the %d-point limit", coarse, maxLatticePoints)
	}
	if !(fine <= maxLatticePoints) {
		return fmt.Errorf("loc: fine window of %.3g points exceeds the %d-point limit", fine, maxLatticePoints)
	}
	return nil
}

// Result is a localization outcome.
type Result struct {
	// Location is the chosen tag position estimate (Z = 0 in 2D mode).
	Location geom.Point
	// Peak is the matched-filter value at the chosen location.
	Peak float64
	// Candidates are the refined candidate peaks considered by the
	// multipath rule, strongest first.
	Candidates []Candidate
	// Heatmap is the coarse P(x,y) grid (for Fig. 6-style rendering).
	Heatmap *stats.Heatmap
}

// Candidate is one refined peak of P(x, y).
type Candidate struct {
	Location geom.Point
	Value    float64
	// TrajectoryDist is the XY distance from the candidate to the closest
	// trajectory point — the §5.2 multipath discriminator.
	TrajectoryDist float64
}

// projection evaluates P(x,y) of Eq. 12 at one point: the coherent sum of
// the disentangled channels counter-rotated by each round-trip distance.
// It serves the fine refinement, Uncertainty and the 3D scan; the 2D
// coarse grid is accumulated by StreamSolver.fold.
func projection(meas []Measurement, x, y, z, freq float64) float64 {
	k := 4 * math.Pi * freq / signal.C // phase per meter of one-way distance ×2
	var acc complex128
	for _, m := range meas {
		dx, dy, dz := x-m.Pos.X, y-m.Pos.Y, z-m.Pos.Z
		d := math.Sqrt(dx*dx + dy*dy + dz*dz)
		s, c := math.Sincos(k * d)
		acc += m.H * complex(c, s)
	}
	return cmplx.Abs(acc)
}

// LocalizeCtx runs the 2D SAR search: coarse grid over the search
// rectangle (cfg.Region, else the trajectory bounds plus Margin), peak
// extraction, fine refinement, then the multipath rule — among candidates
// above PeakThreshold×max, pick the one nearest the trajectory (§5.2),
// since ghost images always lie farther away than the true tag.
//
// The coarse grid is the StreamSolver fold with the whole aperture as one
// batch, its rows striped across a GOMAXPROCS worker pool (cfg.Workers
// overrides; results are bit-identical for every worker count), and the
// fine refinement stripes its window rows across the same pool. ctx is
// checked once per row inside every stripe of both passes; a cancelled
// search returns ctx's error rather than a half-integrated heatmap.
func LocalizeCtx(ctx context.Context, meas []Measurement, traj geom.Trajectory, cfg Config) (*Result, error) {
	rr, err := solve(ctx, meas, traj, cfg, false)
	if err != nil {
		return nil, err
	}
	return rr.Result, nil
}

// solve is the batch 2D solve behind LocalizeCtx and LocalizeRobustCtx: a
// StreamSolver over the search rectangle folds meas under ctx, and the
// shared finalize measures candidates against the caller's trajectory.
func solve(ctx context.Context, meas []Measurement, traj geom.Trajectory, cfg Config, robust bool) (*RobustResult, error) {
	x0, y0, x1, y1 := cfg.searchBounds(traj)
	cfg.Region = &Region{X0: x0, Y0: y0, X1: x1, Y1: y1}
	s, err := newStreamSolver(cfg, robust)
	if err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "loc.solve")
	span.Int("rows", int64(s.rows)).Int("cols", int64(s.cols)).Int("meas", int64(len(meas)))
	defer span.End()
	if err := s.fold(ctx, s.admit(meas)); err != nil {
		return nil, fmt.Errorf("loc: search abandoned mid-grid (%d rows): %w", s.rows, err)
	}
	return s.finalize(ctx, s.heatmap(), s.kept, s.total, traj)
}

// refineAndPick refines the coarse peaks and applies the multipath rule;
// finalize runs it for every 2D solve. Each coarse peak is hill-refined on
// the fine lattice, then the multipath rule (§5.2) picks the answer: among
// candidates within threshold of the best, choose the one closest to the
// trajectory — but only consider candidates far enough from the global
// maximum to be genuine ghost images rather than sidelobes of the same peak.
//
// The refinement searches a fine window of ±CoarseRes around each peak's
// cell center. Every peak's window rows, flattened peak by peak, go through
// one stripeRows fan-out; each row keeps its argmax with strict > in x
// order, and each peak merges its rows in ascending y order on the caller's
// goroutine, so the candidates are the serial window scan's bits for any
// worker count. The windows are integer-indexed (origin + i·FineRes):
// accumulating float adds drifts off-lattice at far-range coordinates —
// ulp(500 m) × dozens of steps exceeds any epsilon guard — skipping the
// final row/column and returning a peak that is not a lattice point. ctx
// is checked once per row; a cancelled search returns ctx's error.
func refineAndPick(ctx context.Context, meas []Measurement, traj geom.Trajectory, cfg Config, hm *stats.Heatmap, peaks []gridPeak) (*Result, error) {
	if len(peaks) == 0 {
		return nil, fmt.Errorf("loc: no peaks above threshold")
	}
	n := gridCount(2*cfg.CoarseRes, cfg.FineRes)
	type rowBest struct{ v, x, y float64 }
	rows := make([]rowBest, len(peaks)*n)
	err := stripeRows(ctx, len(rows), cfg.Workers, func(j int) {
		p := peaks[j/n]
		cx, cy := hm.CellCenter(p.c, p.r)
		ox := cx - cfg.CoarseRes
		y := cy - cfg.CoarseRes + float64(j%n)*cfg.FineRes
		rb := rowBest{v: -1}
		for ix := 0; ix < n; ix++ {
			x := ox + float64(ix)*cfg.FineRes
			if v := projection(meas, x, y, 0, cfg.Freq); v > rb.v {
				rb = rowBest{v: v, x: x, y: y}
			}
		}
		rows[j] = rb
	})
	if err != nil {
		return nil, fmt.Errorf("loc: search abandoned during refinement: %w", err)
	}
	cands := make([]Candidate, 0, len(peaks))
	for i, p := range peaks {
		cx, cy := hm.CellCenter(p.c, p.r)
		best := rowBest{v: -1, x: cx, y: cy}
		for _, rb := range rows[i*n : (i+1)*n] {
			if rb.v > best.v {
				best = rb
			}
		}
		loc := geom.P2(best.x, best.y)
		cands = append(cands, Candidate{
			Location:       loc,
			Value:          best.v,
			TrajectoryDist: traj.DistToPoint(loc),
		})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Value > cands[j].Value })
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Value >= cfg.PeakThreshold*cands[0].Value &&
			c.Location.Dist2D(cands[0].Location) >= cfg.MinPeakSeparation &&
			c.TrajectoryDist < best.TrajectoryDist {
			best = c
		}
	}
	return &Result{Location: best.Location, Peak: best.Value, Candidates: cands, Heatmap: hm}, nil
}

// normalizeAmplitudes returns measurements scaled to unit magnitude
// (zero-amplitude entries dropped). The Unlocked flag rides along: a
// carrier-unlocked capture is still unlocked at unit amplitude, and
// dropping the flag here would launder it past LocalizeRobustCtx's rejection
// whenever PhaseOnly mode re-enters the solve.
func normalizeAmplitudes(meas []Measurement) []Measurement {
	out := make([]Measurement, 0, len(meas))
	for _, m := range meas {
		a := cmplx.Abs(m.H)
		if a <= 0 {
			continue
		}
		out = append(out, Measurement{Pos: m.Pos, H: m.H / complex(a, 0), Unlocked: m.Unlocked})
	}
	return out
}

type gridPeak struct {
	c, r int
	v    float64
}

// suppressRadiusCells derives the peak-suppression radius (in grid
// cells) for a SAR heatmap: the interference fringes of P(x,y) repeat
// every λ/2 of geometry, so the radius must stay strictly below that
// spacing in cells or genuine fringe-top peaks — the true tag among
// them — are suppressed as "neighbors" of the adjacent fringe. It is
// capped at 2 cells (the design's documented maximum) and floored at 1.
// At the default grid (915 MHz, 0.10 m cells: λ/2 ≈ 1.6 cells) this
// yields 1.
func suppressRadiusCells(freq, res float64) int {
	if freq <= 0 || res <= 0 {
		return 1
	}
	fringeCells := (signal.C / freq / 2) / res
	rad := int(fringeCells - 1e-9)
	if rad < 1 {
		return 1
	}
	if rad > 2 {
		return 2
	}
	return rad
}

// localMaxima extracts up to maxN local maxima of the heatmap above
// threshold×globalMax, sorted descending. A single radius governs both
// detection (a peak must dominate its full radius-neighborhood) and
// near-duplicate suppression; detection previously checked only the
// radius-1 ring while dedup used radius 2, so a shoulder cell two cells
// from a stronger peak could pass the max test, be deduped against that
// peak, and shadow a genuine third peak out of the output.
func localMaxima(h *stats.Heatmap, threshold float64, maxN, radius int) []gridPeak {
	if radius < 1 {
		radius = 1
	}
	_, _, global := h.Peak()
	floor := threshold * global
	var peaks []gridPeak
	for r := 0; r < h.Rows; r++ {
		for c := 0; c < h.Cols; c++ {
			v := h.At(c, r)
			if v < floor {
				continue
			}
			isMax := true
			for dr := -radius; dr <= radius && isMax; dr++ {
				for dc := -radius; dc <= radius; dc++ {
					if dr == 0 && dc == 0 {
						continue
					}
					nc, nr := c+dc, r+dr
					if nc < 0 || nr < 0 || nc >= h.Cols || nr >= h.Rows {
						continue
					}
					if h.At(nc, nr) > v {
						isMax = false
						break
					}
				}
			}
			if isMax {
				peaks = append(peaks, gridPeak{c, r, v})
			}
		}
	}
	return dedupPeaks(peaks, maxN, radius)
}

// dedupPeaks sorts peaks descending and suppresses near-duplicates
// (plateaus) within the given radius, keeping at most maxN.
func dedupPeaks(peaks []gridPeak, maxN, radius int) []gridPeak {
	sort.Slice(peaks, func(i, j int) bool { return peaks[i].v > peaks[j].v })
	var out []gridPeak
	for _, p := range peaks {
		dup := false
		for _, q := range out {
			if abs(p.c-q.c) <= radius && abs(p.r-q.r) <= radius {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
		if len(out) >= maxN {
			break
		}
	}
	return out
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// Localize3DCtx extends the search to a height range [z0, z1] (§5.2:
// possible when the trajectory itself is two-dimensional). The coarse pass
// scans z in coarse steps; refinement searches the full 3D neighborhood
// of the best cell. Like LocalizeCtx, the coarse volume scan is striped across the worker pool — one "row" per
// (z, y) line so the stripes stay fine-grained — with a per-line argmax
// (strict >, matching serial x order) merged in ascending (z, y) order on
// the caller's goroutine, which keeps the result bit-identical to the
// serial triple loop. All grids are integer-indexed (origin + i·step) so
// the lattice cannot drift at far-range coordinates.
func Localize3DCtx(ctx context.Context, meas []Measurement, traj geom.Trajectory, cfg Config, z0, z1 float64) (*Result, error) {
	if len(meas) < 4 {
		return nil, fmt.Errorf("loc: need at least 4 measurements for 3D, have %d", len(meas))
	}
	if z1 < z0 {
		z0, z1 = z1, z0
	}
	x0, y0, x1, y1 := cfg.searchBounds(traj)
	if err := cfg.checkResolution(x1-x0, y1-y0, z1-z0); err != nil {
		return nil, err
	}
	nx := gridCount(x1-x0, cfg.CoarseRes)
	ny := gridCount(y1-y0, cfg.CoarseRes)
	nz := gridCount(z1-z0, cfg.CoarseRes)
	ctx, span := obs.StartSpan(ctx, "loc.solve3d")
	span.Int("nx", int64(nx)).Int("ny", int64(ny)).Int("nz", int64(nz)).Int("meas", int64(len(meas)))
	defer span.End()

	type lineBest struct {
		v       float64
		x, y, z float64
	}
	lines := make([]lineBest, nz*ny)
	err := stripeRows(ctx, nz*ny, cfg.Workers, func(j int) {
		z := z0 + float64(j/ny)*cfg.CoarseRes
		y := y0 + float64(j%ny)*cfg.CoarseRes
		lb := lineBest{v: -1}
		for ix := 0; ix < nx; ix++ {
			x := x0 + float64(ix)*cfg.CoarseRes
			if v := projection(meas, x, y, z, cfg.Freq); v > lb.v {
				lb = lineBest{v: v, x: x, y: y, z: z}
			}
		}
		lines[j] = lb
	})
	if err != nil {
		return nil, fmt.Errorf("loc: 3D search abandoned mid-grid (%d lines): %w", nz*ny, err)
	}
	bestV := -1.0
	var bx, by, bz float64
	for _, lb := range lines {
		if lb.v > bestV {
			bestV, bx, by, bz = lb.v, lb.x, lb.y, lb.z
		}
	}
	if bestV <= 0 {
		return nil, fmt.Errorf("loc: empty 3D projection")
	}
	// Fine 3D refinement around the best coarse cell, same integer-indexed
	// lattice discipline; ctx is checked once per (z, y) line.
	nf := gridCount(2*cfg.CoarseRes, cfg.FineRes)
	ox, oy, oz := bx-cfg.CoarseRes, by-cfg.CoarseRes, bz-cfg.CoarseRes
	fv := -1.0
	fx, fy, fz := bx, by, bz
	for iz := 0; iz < nf; iz++ {
		z := oz + float64(iz)*cfg.FineRes
		for iy := 0; iy < nf; iy++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("loc: 3D search abandoned during refinement: %w", err)
			}
			y := oy + float64(iy)*cfg.FineRes
			for ix := 0; ix < nf; ix++ {
				x := ox + float64(ix)*cfg.FineRes
				if v := projection(meas, x, y, z, cfg.Freq); v > fv {
					fv, fx, fy, fz = v, x, y, z
				}
			}
		}
	}
	loc := geom.P(fx, fy, fz)
	return &Result{
		Location:   loc,
		Peak:       fv,
		Candidates: []Candidate{{Location: loc, Value: fv, TrajectoryDist: traj.DistToPoint(loc)}},
	}, nil
}

// Uncertainty estimates the 1-σ localization uncertainty along X and Y
// from the main lobe's shape: the matched-filter peak is sampled on a
// small cross around the estimate and fit with a quadratic; the curvature
// gives the lobe width, scaled by the peak-to-noise contrast. Broad or
// noisy lobes report large σ, razor-sharp peaks report sub-centimeter.
func Uncertainty(meas []Measurement, res *Result, cfg Config) (sigmaX, sigmaY float64) {
	if res == nil || len(meas) == 0 {
		return math.Inf(1), math.Inf(1)
	}
	if cfg.PhaseOnly {
		meas = normalizeAmplitudes(meas)
	}
	p0 := res.Peak
	if p0 <= 0 {
		return math.Inf(1), math.Inf(1)
	}
	step := cfg.FineRes
	if step <= 0 {
		step = 0.01
	}
	curv := func(dx, dy float64) float64 {
		plus := projection(meas, res.Location.X+dx, res.Location.Y+dy, res.Location.Z, cfg.Freq)
		minus := projection(meas, res.Location.X-dx, res.Location.Y-dy, res.Location.Z, cfg.Freq)
		// Quadratic fit: P(δ) ≈ P0 − ½k δ²; k = (2P0 − P+ − P−)/δ².
		k := (2*p0 - plus - minus) / (step * step)
		if k <= 0 {
			return math.Inf(1)
		}
		// σ where the lobe drops by half its height: δ½ = sqrt(P0/k).
		return math.Sqrt(p0 / k)
	}
	return curv(step, 0), curv(0, step)
}
