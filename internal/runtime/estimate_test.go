package runtime

import (
	"bytes"
	"context"
	"math"
	"testing"
)

// TestEstimateSinkFiresPerCommit: the live-estimate sink fires after
// every sortie commit whose accumulated aperture supports a solve, the
// accounting tracks the committed SAR buffer, and the final estimate is
// exactly the end-of-mission solve — same accumulator, same bits.
func TestEstimateSinkFiresPerCommit(t *testing.T) {
	cfg := testConfig(7)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ests []LiveEstimate
	e.EstimateSink = func(est LiveEstimate) { ests = append(ests, est) }
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.LocOK {
		t.Fatal("mission-end localization did not run")
	}
	if len(ests) == 0 {
		t.Fatal("estimate sink never fired")
	}
	points := 0
	seen := map[int]LiveEstimate{}
	for _, est := range ests {
		seen[est.SortiesDone] = est
		if est.SigmaX <= 0 || math.IsInf(est.SigmaX, 1) || est.SigmaY <= 0 || math.IsInf(est.SigmaY, 1) {
			t.Fatalf("estimate after sortie %d has degenerate σ (%v, %v)", est.SortiesDone, est.SigmaX, est.SigmaY)
		}
		if est.Kept > est.Total {
			t.Fatalf("estimate accounting kept %d > total %d", est.Kept, est.Total)
		}
	}
	for _, s := range res.Sorties {
		points += s.SARPoints
		if est, ok := seen[s.Sortie+1]; ok && est.Total > points {
			t.Fatalf("estimate after sortie %d integrates %d captures, only %d committed",
				s.Sortie+1, est.Total, points)
		}
	}
	last := ests[len(ests)-1]
	if last.SortiesDone != cfg.Sorties {
		t.Fatalf("last estimate at %d sorties, mission ran %d", last.SortiesDone, cfg.Sorties)
	}
	if last.Total != points {
		t.Fatalf("final estimate integrates %d captures, mission committed %d", last.Total, points)
	}
	if last.X != res.LocX || last.Y != res.LocY {
		t.Fatalf("final live estimate (%.17g, %.17g) != mission solve (%.17g, %.17g)",
			last.X, last.Y, res.LocX, res.LocY)
	}
}

// TestResumeCarriesAccumulator: a checkpoint taken mid-mission carries
// the streaming grid verbatim, so the restored engine's live estimate is
// bit-identical to the one the original engine would have produced at
// the same boundary — and stays bit-identical through mission end.
func TestResumeCarriesAccumulator(t *testing.T) {
	cfg := testConfig(42)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunSorties(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(cfg, e.SnapshotCtx(context.Background()))
	if err != nil {
		t.Fatal(err)
	}

	// The restored grid must match cell for cell.
	if !bytes.Equal(r.solver.AppendGrid(nil), e.solver.AppendGrid(nil)) {
		t.Fatal("restored grid differs from the original engine's")
	}

	estA, okA := e.LiveEstimateCtx(context.Background())
	estB, okB := r.LiveEstimateCtx(context.Background())
	if okA != okB {
		t.Fatalf("estimate availability diverged: original %v, restored %v", okA, okB)
	}
	if okA && estA != estB {
		t.Fatalf("restored estimate %+v != original %+v", estB, estA)
	}

	resA, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resB, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resA.LocX != resB.LocX || resA.LocY != resB.LocY || resA.LocOK != resB.LocOK {
		t.Fatalf("post-resume solve (%v, %v, %v) != uninterrupted (%v, %v, %v)",
			resB.LocX, resB.LocY, resB.LocOK, resA.LocX, resA.LocY, resA.LocOK)
	}
}

// TestEstimateSinkAbsentWithoutSAR: a mission without SAR collection has
// no accumulator; the sink must stay silent and LiveEstimateCtx must
// report not-ok rather than fabricate a solve.
func TestEstimateSinkAbsentWithoutSAR(t *testing.T) {
	cfg := testConfig(7)
	cfg.SARPointsPerSortie = 0
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	e.EstimateSink = func(LiveEstimate) { fired++ }
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("estimate sink fired %d times with no SAR aperture", fired)
	}
	if _, ok := e.LiveEstimateCtx(context.Background()); ok {
		t.Fatal("LiveEstimateCtx produced an estimate without an accumulator")
	}
}
