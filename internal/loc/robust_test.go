package loc

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"rfly/internal/geom"
	"rfly/internal/rng"
	"rfly/internal/signal"
)

// robustScenario synthesizes a straight flight past a tag: nPoints clean
// captures, of which the middle nBad are phase-scrambled and flagged
// Unlocked (a relay that drifted mid-flight).
func robustScenario(nPoints, nBad int, seed uint64) ([]Measurement, geom.Trajectory, geom.Point) {
	r := rng.New(seed)
	tagPos := geom.P(1.5, 2.0, 0)
	const freq = 915e6
	k := 4 * math.Pi * freq / signal.C
	var pts []geom.Point
	meas := make([]Measurement, 0, nPoints)
	badLo := (nPoints - nBad) / 2
	for i := 0; i < nPoints; i++ {
		p := geom.P(3*float64(i)/float64(nPoints-1), 0, 0.8)
		pts = append(pts, p)
		d := p.Dist(tagPos)
		h := cmplx.Rect(1/(d*d), -k*d)
		h += r.ComplexCircular(0.03 / (d * d))
		m := Measurement{Pos: p, H: h}
		if i >= badLo && i < badLo+nBad {
			// Unlocked capture: the phase is pure noise.
			m.H = cmplx.Rect(cmplx.Abs(h), r.Phase())
			m.Unlocked = true
		}
		meas = append(meas, m)
	}
	return meas, geom.Trajectory{Points: pts}, tagPos
}

func robustCfg(freq float64) Config {
	cfg := DefaultConfig(freq)
	cfg.Region = &Region{X0: -2, Y0: 0.3, X1: 5, Y1: 5}
	return cfg
}

func TestRejectUnlocked(t *testing.T) {
	meas, _, _ := robustScenario(40, 12, 31)
	kept, rejected := RejectUnlocked(meas)
	if rejected != 12 || len(kept) != 28 {
		t.Fatalf("kept %d, rejected %d", len(kept), rejected)
	}
	for _, m := range kept {
		if m.Unlocked {
			t.Fatal("unlocked measurement survived rejection")
		}
	}
	if len(meas) != 40 {
		t.Fatal("input slice was modified")
	}
}

func TestLocalizeRobustBeatsNaiveUnderCorruption(t *testing.T) {
	meas, traj, tagPos := robustScenario(45, 15, 32)
	cfg := robustCfg(915e6)

	rob, err := LocalizeRobustCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rob.Total != 45 || rob.Kept != 30 {
		t.Fatalf("accounting: %d/%d", rob.Kept, rob.Total)
	}
	robErr := rob.Location.Dist2D(tagPos)
	if robErr > 0.5 {
		t.Fatalf("robust error = %v m with a clean 30-point aperture", robErr)
	}

	// The naive solve integrates the scrambled phases too; across seeds it
	// is sometimes lucky, but it must never beat robust by a wide margin.
	naive, err := LocalizeCtx(context.Background(), meas, traj, cfg)
	if err == nil {
		if naive.Location.Dist2D(tagPos) < robErr-0.25 {
			t.Fatalf("naive (%.2f m) clearly beat robust (%.2f m)",
				naive.Location.Dist2D(tagPos), robErr)
		}
	}
}

func TestLocalizeRobustWidensSigma(t *testing.T) {
	// Same geometry, no corruption vs 1/3 corrupted: σ must grow at least
	// by the sqrt(total/kept) aperture factor.
	cleanMeas, traj, _ := robustScenario(45, 0, 33)
	dirtyMeas, _, _ := robustScenario(45, 15, 33)
	cfg := robustCfg(915e6)

	clean, err := LocalizeRobustCtx(context.Background(), cleanMeas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := LocalizeRobustCtx(context.Background(), dirtyMeas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.SigmaX <= 0 || math.IsInf(clean.SigmaX, 1) {
		t.Fatalf("clean σx = %v", clean.SigmaX)
	}
	if dirty.SigmaX <= clean.SigmaX {
		t.Fatalf("σx did not widen: dirty %v vs clean %v", dirty.SigmaX, clean.SigmaX)
	}
	// The contract: reported σ is the kept-aperture Uncertainty times the
	// sqrt(total/kept) rejection penalty.
	kept, _ := RejectUnlocked(dirtyMeas)
	raw, err := LocalizeCtx(context.Background(), kept, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sx, _ := Uncertainty(kept, raw, cfg)
	want := sx * math.Sqrt(45.0/30.0)
	if math.Abs(dirty.SigmaX-want) > 1e-12 {
		t.Fatalf("σx = %v, want raw %v × sqrt(45/30) = %v", dirty.SigmaX, sx, want)
	}
}

func TestLocalizeRobustFailsWhenMostlyDark(t *testing.T) {
	meas, traj, _ := robustScenario(20, 18, 34)
	if _, err := LocalizeRobustCtx(context.Background(), meas, traj, robustCfg(915e6)); err == nil {
		t.Fatal("2 surviving measurements should not produce a solve")
	}
}

// TestNormalizeAmplitudesPreservesUnlocked is the flag-laundering
// regression: rebuilding measurements at unit amplitude must not scrub
// the Unlocked flag, or phase-only pipelines feed carrier-unlocked
// captures past every downstream robust rejection.
func TestNormalizeAmplitudesPreservesUnlocked(t *testing.T) {
	meas, _, _ := robustScenario(40, 12, 41)
	norm := normalizeAmplitudes(meas)
	if len(norm) != len(meas) {
		t.Fatalf("normalize dropped %d non-zero measurements", len(meas)-len(norm))
	}
	for i := range norm {
		if norm[i].Unlocked != meas[i].Unlocked {
			t.Fatalf("measurement %d: Unlocked %v became %v after normalization",
				i, meas[i].Unlocked, norm[i].Unlocked)
		}
	}
	kept, rejected := RejectUnlocked(norm)
	if rejected != 12 || len(kept) != 28 {
		t.Fatalf("post-normalization rejection kept %d / rejected %d, want 28/12", len(kept), rejected)
	}
}

// TestPhaseOnlyRobustRejectsUnlocked composes PhaseOnly with
// LocalizeRobust: the unit-amplitude rebuild inside the solve must not
// launder unlocked captures back into the aperture, so the accounting
// (and the σ widening it drives) matches the amplitude-weighted path.
func TestPhaseOnlyRobustRejectsUnlocked(t *testing.T) {
	meas, traj, tagPos := robustScenario(45, 15, 42)
	cfg := robustCfg(915e6)
	cfg.PhaseOnly = true
	rob, err := LocalizeRobustCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rob.Total != 45 || rob.Kept != 30 {
		t.Fatalf("phase-only robust accounting %d/%d, want 30/45", rob.Kept, rob.Total)
	}
	if e := rob.Location.Dist2D(tagPos); e > 0.5 {
		t.Fatalf("phase-only robust error = %v m", e)
	}
	// The rejection penalty must be present in σ: widened by sqrt(45/30).
	kept, _ := RejectUnlocked(meas)
	raw, err := LocalizeCtx(context.Background(), kept, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sx, _ := Uncertainty(kept, raw, cfg)
	if want := sx * math.Sqrt(45.0/30.0); math.Abs(rob.SigmaX-want) > 1e-12 {
		t.Fatalf("phase-only σx = %v, want %v", rob.SigmaX, want)
	}
}

func TestLocalizeRobustCleanMatchesLocalize(t *testing.T) {
	meas, traj, _ := robustScenario(45, 0, 35)
	cfg := robustCfg(915e6)
	rob, err := LocalizeRobustCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := LocalizeCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rob.Location != plain.Location {
		t.Fatalf("clean robust %v != plain %v", rob.Location, plain.Location)
	}
}
