package loc

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"rfly/internal/geom"
	"rfly/internal/signal"
	"rfly/internal/stats"
)

// syntheticPeakMeas builds measurements whose disentangled channels are
// exact conjugate phases toward tgt: the SAR projection then peaks
// precisely at tgt, with no noise.
func syntheticPeakMeas(tgt geom.Point, freq float64) []Measurement {
	k := 4 * math.Pi * freq / signal.C
	var meas []Measurement
	for i := 0; i < 25; i++ {
		p := geom.P(tgt.X-2+float64(i)*0.16, tgt.Y-2.5, tgt.Z+1)
		d := math.Sqrt((tgt.X-p.X)*(tgt.X-p.X) + (tgt.Y-p.Y)*(tgt.Y-p.Y) + (tgt.Z-p.Z)*(tgt.Z-p.Z))
		meas = append(meas, Measurement{Pos: p, H: cmplx.Rect(1, -k*d)})
	}
	return meas
}

// TestRefine2DStaysOnLattice is the integer-stepping regression: the fine
// grid must be origin + i·step, so the returned peak is bitwise equal to
// a lattice point even at far-range coordinates where accumulated float
// stepping drifts. Pre-fix (accumulating `yy += fineRes`), the returned
// coordinate at cx ≈ 1000 m matches no lattice value bitwise. The window
// is refined through refineAndPick with one peak, whose one-cell heatmap
// centers it exactly on (cx, cy).
func TestRefine2DStaysOnLattice(t *testing.T) {
	const (
		freq      = 915e6
		coarseRes = 0.10
		fineRes   = 0.01
	)
	cx, cy := 1000.0, 500.0
	ox, oy := cx-coarseRes, cy-coarseRes
	// Target exactly on the fine lattice, away from the center cell.
	tgt := geom.P(ox+17*fineRes, oy+4*fineRes, 0)
	meas := syntheticPeakMeas(tgt, freq)

	hm := stats.NewHeatmap(cx-0.5, cy-0.5, 1, 1, 1, 1)
	if hx, hy := hm.CellCenter(0, 0); hx != cx || hy != cy {
		t.Fatalf("heatmap cell center (%.17g, %.17g), want (%v, %v)", hx, hy, cx, cy)
	}
	cfg := DefaultConfig(freq)
	cfg.CoarseRes, cfg.FineRes = coarseRes, fineRes
	res, err := refineAndPick(context.Background(), meas, trajOf(meas), cfg, hm, []gridPeak{{c: 0, r: 0, v: 1}})
	if err != nil || res.Peak <= 0 {
		t.Fatalf("refineAndPick found no peak (res=%+v, err=%v)", res, err)
	}
	x, y := res.Location.X, res.Location.Y
	n := gridCount(2*coarseRes, fineRes)
	if n != 21 {
		t.Fatalf("gridCount(%v, %v) = %d, want 21", 2*coarseRes, fineRes, n)
	}
	onLattice := func(got, origin float64) bool {
		for i := 0; i < n; i++ {
			if got == origin+float64(i)*fineRes {
				return true
			}
		}
		return false
	}
	if !onLattice(x, ox) || !onLattice(y, oy) {
		t.Fatalf("refined peak (%.17g, %.17g) is not a lattice point of origin (%.17g, %.17g)",
			x, y, ox, oy)
	}
	if x != tgt.X || y != tgt.Y {
		t.Fatalf("refined peak (%.17g, %.17g), want the synthetic target (%.17g, %.17g)",
			x, y, tgt.X, tgt.Y)
	}
}

// TestLocalMaximaChainSuppression is the detection/suppression-radius
// regression. Three peaks in a chain, each 2 cells apart and descending:
// consistent radius-2 handling keeps only the dominant one. Pre-fix,
// detection checked only the radius-1 ring, so the 2-cells-away shoulder
// peaks passed detection and the weakest survived dedup (it is >2 cells
// from the strongest) — a phantom third candidate.
func TestLocalMaximaChainSuppression(t *testing.T) {
	h := stats.NewHeatmap(0, 0, 1, 1, 9, 5)
	for r := 0; r < 5; r++ {
		for c := 0; c < 9; c++ {
			h.Set(c, r, 1)
		}
	}
	h.Set(2, 2, 10)
	h.Set(4, 2, 9)
	h.Set(6, 2, 8)
	got := localMaxima(h, 0.5, 8, 2)
	if len(got) != 1 {
		t.Fatalf("radius-2 suppression kept %d peaks %v, want only the dominant one", len(got), got)
	}
	if got[0].c != 2 || got[0].r != 2 || got[0].v != 10 {
		t.Fatalf("kept peak %+v, want (2,2)=10", got[0])
	}
	// At radius 1 the same chain legitimately resolves as separate peaks.
	if got := localMaxima(h, 0.5, 8, 1); len(got) != 3 {
		t.Fatalf("radius-1 kept %d peaks, want 3", len(got))
	}
}

// TestSuppressRadiusCells pins the fringe-derived radius: it must stay
// strictly below the λ/2 fringe spacing in cells (or real fringe-top
// peaks are suppressed), floored at 1 and capped at the documented 2.
func TestSuppressRadiusCells(t *testing.T) {
	cases := []struct {
		freq, res float64
		want      int
	}{
		{915e6, 0.10, 1}, // λ/2 ≈ 1.64 cells → radius 1
		{915e6, 0.05, 2}, // λ/2 ≈ 3.28 cells → capped at 2
		{915e6, 0.20, 1}, // λ/2 < 1 cell → floored at 1
		{0, 0.10, 1},     // degenerate inputs
	}
	for _, c := range cases {
		if got := suppressRadiusCells(c.freq, c.res); got != c.want {
			t.Fatalf("suppressRadiusCells(%v, %v) = %d, want %d", c.freq, c.res, got, c.want)
		}
	}
}

func TestGridCount(t *testing.T) {
	if got := gridCount(0.2, 0.01); got != 21 {
		t.Fatalf("gridCount(0.2, 0.01) = %d", got)
	}
	if got := gridCount(0, 0.01); got != 1 {
		t.Fatalf("gridCount(0, 0.01) = %d", got)
	}
	if got := gridCount(-1, 0.01); got != 1 {
		t.Fatalf("gridCount(-1, 0.01) = %d", got)
	}
	if got := gridCount(1.0, 0.1); got != 11 {
		t.Fatalf("gridCount(1.0, 0.1) = %d", got)
	}
}

// TestGridCountExactMultipleSpans pins the coarse-bounds cases the old
// Ceil-based sizing in LocalizeCtx got wrong: a span that is an exact
// multiple of the step must produce exactly span/step + 1 lattice points,
// regardless of which way the float division rounds. 0.9/0.3 rounds UP
// (3.0000000000000004) — Ceil sizing invented an extra boundary row —
// while 4.0/0.1 rounds down; both must land on the exact count.
func TestGridCountExactMultipleSpans(t *testing.T) {
	cases := []struct {
		span, step float64
		want       int
	}{
		{4.0, 0.10, 41}, // the default coarse grid over a 4 m aisle
		{0.9, 0.3, 4},   // 0.9/0.3 > 3 in float64: Ceil+1 said 5
		{9.0, 0.3, 31},  // 9.0/0.3 > 30 in float64: Ceil+1 said 32
		{5.0, 0.10, 51},
		{4.8, 0.10, 49},
	}
	for _, c := range cases {
		if got := gridCount(c.span, c.step); got != c.want {
			t.Fatalf("gridCount(%v, %v) = %d, want %d", c.span, c.step, got, c.want)
		}
	}
}

// TestLocalizeCoarseGridUsesGridCount is the end-to-end regression for
// the unified sizing: the coarse heatmap of a solve over an
// exact-multiple Region must have gridCount dimensions. With the old
// int(Ceil(span/CoarseRes))+1 sizing, a 9 m span at 0.3 m picked up a
// 32nd column (9/0.3 rounds up in float64), so the coarse lattice
// disagreed with every other grid in the package.
func TestLocalizeCoarseGridUsesGridCount(t *testing.T) {
	traj := geom.Line(geom.P2(0, 0.3), geom.P2(3, 0.3), 40)
	meas := synthChannels(traj, geom.P2(1.5, 2.0), f900, nil, 0, 0, nil)
	cfg := DefaultConfig(f900)
	cfg.CoarseRes = 0.3
	cfg.Region = &Region{X0: -3, Y0: 0.5, X1: 6, Y1: 5} // X span 9.0, Y span 4.5
	res, err := LocalizeCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Heatmap.Cols != 31 || res.Heatmap.Rows != 16 {
		t.Fatalf("coarse grid %d×%d, want 31×16 (gridCount over exact-multiple spans)",
			res.Heatmap.Cols, res.Heatmap.Rows)
	}
	// And at the default 0.10 m pitch over a 4 m-wide exact region.
	cfg = DefaultConfig(f900)
	cfg.Region = &Region{X0: 0, Y0: 0.5, X1: 4, Y1: 4.5}
	res, err = LocalizeCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Heatmap.Cols != 41 || res.Heatmap.Rows != 41 {
		t.Fatalf("default-pitch grid %d×%d, want 41×41", res.Heatmap.Cols, res.Heatmap.Rows)
	}
}
