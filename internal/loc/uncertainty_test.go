package loc

import (
	"context"
	"math"
	"testing"

	"rfly/internal/geom"
)

// TestUncertaintyDegeneratePaths pins the ±Inf contract: a nil result,
// an empty measurement set, or a non-positive peak cannot be assigned a
// finite confidence.
func TestUncertaintyDegeneratePaths(t *testing.T) {
	cfg := regionAbove(f900)
	traj := geom.Line(geom.P2(0, 0.3), geom.P2(3, 0.3), 40)
	meas := synthChannels(traj, geom.P2(1.5, 2.0), f900, nil, 0, 0, nil)
	res, err := LocalizeCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if sx, sy := Uncertainty(meas, nil, cfg); !math.IsInf(sx, 1) || !math.IsInf(sy, 1) {
		t.Fatalf("nil result: σ = (%v, %v), want +Inf", sx, sy)
	}
	if sx, sy := Uncertainty(nil, res, cfg); !math.IsInf(sx, 1) || !math.IsInf(sy, 1) {
		t.Fatalf("empty measurements: σ = (%v, %v), want +Inf", sx, sy)
	}
	flat := &Result{Location: res.Location, Peak: 0}
	if sx, sy := Uncertainty(meas, flat, cfg); !math.IsInf(sx, 1) || !math.IsInf(sy, 1) {
		t.Fatalf("zero peak: σ = (%v, %v), want +Inf", sx, sy)
	}
	neg := &Result{Location: res.Location, Peak: -1}
	if sx, sy := Uncertainty(meas, neg, cfg); !math.IsInf(sx, 1) || !math.IsInf(sy, 1) {
		t.Fatalf("negative peak: σ = (%v, %v), want +Inf", sx, sy)
	}
}

// TestUncertaintySharperLobeSmallerSigma: a longer synthetic aperture
// sharpens the matched-filter lobe, so the fitted σ must shrink — on both
// axes, and stay finite and positive throughout.
func TestUncertaintySharperLobeSmallerSigma(t *testing.T) {
	tagPos := geom.P2(1.5, 2.0)
	cfg := regionAbove(f900)
	cfg.Region.Y0 = 0.5
	sigmas := make([][2]float64, 0, 2)
	for _, aperture := range []float64{0.8, 3.0} {
		traj := geom.Line(geom.P2(1.5-aperture/2, 0.3), geom.P2(1.5+aperture/2, 0.3), 30)
		meas := synthChannels(traj, tagPos, f900, nil, 0, 0, nil)
		res, err := LocalizeCtx(context.Background(), meas, traj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sx, sy := Uncertainty(meas, res, cfg)
		if sx <= 0 || sy <= 0 || math.IsInf(sx, 1) || math.IsInf(sy, 1) {
			t.Fatalf("aperture %.1f: degenerate σ (%v, %v)", aperture, sx, sy)
		}
		sigmas = append(sigmas, [2]float64{sx, sy})
	}
	if sigmas[1][0] >= sigmas[0][0] {
		t.Fatalf("σx did not shrink with aperture: %v vs %v", sigmas[1][0], sigmas[0][0])
	}
	if sigmas[1][1] >= sigmas[0][1] {
		t.Fatalf("σy did not shrink with aperture: %v vs %v", sigmas[1][1], sigmas[0][1])
	}
}

// TestStreamSigmaAgreesWithBatch: the streaming Snapshot's error bars are
// the same Uncertainty numbers the batch path reports — exactly.
func TestStreamSigmaAgreesWithBatch(t *testing.T) {
	sc := streamScenarios()[2] // noisy: σ is non-trivial
	traj := trajOf(sc.meas)
	res, err := LocalizeCtx(context.Background(), sc.meas, traj, sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	sx, sy := Uncertainty(sc.meas, res, sc.cfg)

	s, err := NewStreamSolver(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AddBatch(context.Background(), sc.meas)
	snap, err := s.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.SigmaX != sx || snap.SigmaY != sy {
		t.Fatalf("stream σ (%.17g, %.17g) != batch (%.17g, %.17g)",
			snap.SigmaX, snap.SigmaY, sx, sy)
	}
}
