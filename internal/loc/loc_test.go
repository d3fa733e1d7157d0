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

const f900 = 915e6

// synthChannels builds ideal relay→tag round-trip channels along a
// trajectory: h_l = amp_l · e^{−j·4πf·d_l/c} plus optional ghost paths and
// noise.
func synthChannels(traj geom.Trajectory, tagPos geom.Point, freq float64,
	ghosts []geom.Point, ghostAmp float64, noiseSigma float64, src *rng.Source) []Measurement {
	k := 4 * math.Pi * freq / signal.C
	meas := make([]Measurement, 0, traj.Len())
	for _, p := range traj.Points {
		d := p.Dist(tagPos)
		amp := 1 / (d * d) // free-space round trip
		h := cmplx.Rect(amp, -k*d)
		for _, g := range ghosts {
			// Ghost = image of the tag: longer path, weaker.
			dg := p.Dist(g)
			h += cmplx.Rect(ghostAmp/(dg*dg), -k*dg)
		}
		if noiseSigma > 0 {
			h += src.ComplexCircular(noiseSigma * amp)
		}
		meas = append(meas, Measurement{Pos: p, H: h})
	}
	return meas
}

// regionAbove returns a config searching only the +Y side of the flight
// line, breaking the mirror symmetry a collinear trajectory cannot.
func regionAbove(freq float64) Config {
	cfg := DefaultConfig(freq)
	cfg.Region = &Region{X0: -3, Y0: 0.05, X1: 6, Y1: 5}
	return cfg
}

func TestDisentangle(t *testing.T) {
	pos := geom.P(1, 2, 0.8)
	target := []complex128{2 + 0i, 4i, 1 + 1i}
	ref := []complex128{1 + 0i, 2i, 1 + 0i}
	want := []complex128{2, 2, 1 + 1i}
	for i := range want {
		out := Disentangle(Measurement{Pos: pos, H: target[i], Unlocked: i == 1}, Measurement{Pos: pos, H: ref[i]})
		if cmplx.Abs(out.H-want[i]) > 1e-12 {
			t.Fatalf("out[%d] = %v", i, out.H)
		}
		// Pose and lock provenance ride from the target capture.
		if out.Pos != pos || out.Unlocked != (i == 1) {
			t.Fatalf("out[%d] lost pose/lock provenance: %+v", i, out)
		}
	}
	// Weak reference zeroes the sample instead of exploding.
	for _, weak := range []complex128{0, 1e-16} {
		if out := Disentangle(Measurement{H: 1}, Measurement{H: weak}); out.H != 0 {
			t.Fatalf("weak reference %v: %v", weak, out.H)
		}
	}
}

func TestDisentangleCancelsFirstHalfLink(t *testing.T) {
	// Eq. 10 end-to-end: entangled channel = (reader→relay factor with
	// multipath) × (relay→tag factor). Dividing by the embedded tag's
	// channel (= first factor alone) must recover the second exactly.
	traj := geom.Line(geom.P2(0, 0), geom.P2(2, 0), 20)
	tagPos := geom.P2(1, 2)
	reader := geom.P2(-8, 1)
	k := 4 * math.Pi * f900 / signal.C
	for i, p := range traj.Points {
		d1 := reader.Dist(p)
		// Reader→relay half-link with a multipath term.
		h1 := cmplx.Rect(1/(d1*d1), -k*d1) + cmplx.Rect(0.3/(d1*d1), -k*(d1+3.7))
		d2 := p.Dist(tagPos)
		h2 := cmplx.Rect(1/(d2*d2), -k*d2)
		got := Disentangle(Measurement{Pos: p, H: h1 * h2}, Measurement{Pos: p, H: h1})
		if cmplx.Abs(got.H-h2) > 1e-9 {
			t.Fatalf("sample %d: %v vs %v", i, got.H, h2)
		}
	}
}

func TestLocalizeCleanLoS(t *testing.T) {
	// Fig. 6(a): clean line-of-sight localization should be within a few
	// centimeters.
	traj := geom.Line(geom.P2(0, 0.3), geom.P2(3, 0.3), 40)
	tagPos := geom.P2(1.4, 2.1)
	meas := synthChannels(traj, tagPos, f900, nil, 0, 0, nil)
	cfg := regionAbove(f900)
	cfg.Region.Y0 = 0.5
	res, err := LocalizeCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Location.Dist2D(tagPos); e > 0.07 {
		t.Fatalf("LoS error = %v m", e)
	}
	if res.Heatmap == nil {
		t.Fatal("no heatmap")
	}
}

func TestLocalizeNoisy(t *testing.T) {
	src := rng.New(2)
	traj := geom.Line(geom.P2(0, 0), geom.P2(3, 0), 40)
	tagPos := geom.P2(2.0, 1.5)
	meas := synthChannels(traj, tagPos, f900, nil, 0, 0.3, src)
	res, err := LocalizeCtx(context.Background(), meas, traj, regionAbove(f900))
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Location.Dist2D(tagPos); e > 0.25 {
		t.Fatalf("noisy error = %v m", e)
	}
}

func TestMultipathRulePicksNearPeak(t *testing.T) {
	// Fig. 6(b): a strong ghost farther from the trajectory must lose to
	// the true tag near the trajectory even when the ghost peak rivals it.
	traj := geom.Line(geom.P2(0, 0), geom.P2(2.5, 0), 36)
	tagPos := geom.P2(1.2, 1.0)
	ghost := geom.P2(1.2, 3.4) // mirror image behind a shelf
	meas := synthChannels(traj, tagPos, f900, []geom.Point{ghost}, 0.9, 0, nil)
	res, err := LocalizeCtx(context.Background(), meas, traj, regionAbove(f900))
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Location.Dist2D(tagPos); e > 0.15 {
		t.Fatalf("multipath error = %v m (picked %v)", e, res.Location)
	}
	if len(res.Candidates) < 2 {
		t.Log("note: ghost did not form a separate candidate peak")
	}
}

func TestLocalizeAccuracyImprovesWithAperture(t *testing.T) {
	// The Fig. 13 trend, in miniature: bigger aperture → finer peak.
	src := rng.New(3)
	tagPos := geom.P2(1.5, 2.0)
	var errs []float64
	for _, ap := range []float64{0.5, 2.5} {
		var worst float64
		for trial := 0; trial < 5; trial++ {
			traj := geom.Line(geom.P2(1.5-ap/2, 0), geom.P2(1.5+ap/2, 0), 30)
			meas := synthChannels(traj, tagPos, f900, nil, 0, 0.5, src)
			res, err := LocalizeCtx(context.Background(), meas, traj, regionAbove(f900))
			if err != nil {
				t.Fatal(err)
			}
			if e := res.Location.Dist2D(tagPos); e > worst {
				worst = e
			}
		}
		errs = append(errs, worst)
	}
	if errs[1] > errs[0] {
		t.Fatalf("aperture 2.5 m worst error %v > aperture 0.5 m %v", errs[1], errs[0])
	}
}

func TestLocalizeErrors(t *testing.T) {
	traj := geom.Line(geom.P2(0, 0), geom.P2(1, 0), 2)
	if _, err := LocalizeCtx(context.Background(), nil, traj, DefaultConfig(f900)); err == nil {
		t.Fatal("no measurements accepted")
	}
	meas := synthChannels(geom.Line(geom.P2(0, 0), geom.P2(1, 0), 5), geom.P2(0.5, 1), f900, nil, 0, 0, nil)
	bad := DefaultConfig(f900)
	bad.FineRes = 0
	if _, err := LocalizeCtx(context.Background(), meas, geom.Line(geom.P2(0, 0), geom.P2(1, 0), 5), bad); err == nil {
		t.Fatal("zero resolution accepted")
	}
	// Lattices over maxLatticePoints are refused up front, in 2D and 3D:
	// a micron coarse grid would need ~7e13 cells, a 0.1 µm fine step a
	// 4e12-point refinement window.
	for _, tc := range []struct {
		name         string
		coarse, fine float64
	}{
		{"coarse-1e-6", 1e-6, 0.01},
		{"fine-1e-7", 0.10, 1e-7},
	} {
		cfg := DefaultConfig(f900)
		cfg.CoarseRes, cfg.FineRes = tc.coarse, tc.fine
		traj := geom.Line(geom.P2(0, 0), geom.P2(1, 0), 5)
		if _, err := LocalizeCtx(context.Background(), meas, traj, cfg); err == nil {
			t.Fatalf("%s: oversized 2D lattice accepted", tc.name)
		}
		if _, err := Localize3DCtx(context.Background(), meas, traj, cfg, 0, 1); err == nil {
			t.Fatalf("%s: oversized 3D lattice accepted", tc.name)
		}
	}
}

func TestLocalize3D(t *testing.T) {
	// 2D (planar) trajectory at height, tag on the floor: the 3D search
	// recovers x, y and approximately z.
	traj := geom.Lawnmower(0, 0, 2.4, 1.2, 1.5, 0.4, 0.3)
	tagPos := geom.P(1.1, 0.7, 0)
	meas := synthChannels(traj, tagPos, f900, nil, 0, 0, nil)
	cfg := DefaultConfig(f900)
	cfg.Margin = 2
	cfg.CoarseRes = 0.15
	cfg.FineRes = 0.03
	res, err := Localize3DCtx(context.Background(), meas, traj, cfg, -0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Location.Dist(tagPos); e > 0.25 {
		t.Fatalf("3D error = %v (got %v)", e, res.Location)
	}
	if _, err := Localize3DCtx(context.Background(), meas[:3], traj, cfg, 0, 1); err == nil {
		t.Fatal("3 measurements accepted for 3D")
	}
}

func TestLocalizeReaderHalfLink(t *testing.T) {
	// §5.1: the embedded tag's channels localize the static endpoint of
	// the reader→relay half-link.
	readerPos := geom.P2(2.2, 3.1)
	traj := geom.Line(geom.P2(0, 0), geom.P2(4, 0), 50)
	k := 4 * math.Pi * f900 / signal.C
	var meas []Measurement
	for _, p := range traj.Points {
		d := p.Dist(readerPos)
		meas = append(meas, Measurement{Pos: p, H: cmplx.Rect(1/(d*d), -k*d)})
	}
	res, err := LocalizeCtx(context.Background(), meas, traj, regionAbove(f900))
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Location.Dist2D(readerPos); e > 0.1 {
		t.Fatalf("reader localization error = %v", e)
	}
}

func TestRangeFromRSSI(t *testing.T) {
	cfg := DefaultRSSIConfig(f900, 1)
	lambda := signal.C / f900
	// |h| at d meters under the model, inverted, must give d back.
	for _, d := range []float64{0.5, 2, 10} {
		mag := math.Pow(lambda/(4*math.Pi*d), 2)
		if got := cfg.RangeFromRSSI(mag); math.Abs(got-d) > 1e-9 {
			t.Fatalf("RangeFromRSSI inverse broken at %v m: %v", d, got)
		}
	}
	if !math.IsInf(cfg.RangeFromRSSI(0), 1) {
		t.Fatal("zero magnitude should map to +inf range")
	}
}

func TestLocalizeRSSIWorseThanSAR(t *testing.T) {
	src := rng.New(4)
	traj := geom.Line(geom.P2(0, 0), geom.P2(2.5, 0), 30)
	tagPos := geom.P2(1.3, 1.8)
	lambda := signal.C / f900
	// Calibration matching synthChannels' 1/d² amplitude:
	// K·(λ/4πd)² = 1/d² → K = (4π/λ)².
	k := math.Pow(4*math.Pi/lambda, 2)
	meas := synthChannels(traj, tagPos, f900, nil, 0, 0.4, src)
	sar, err := LocalizeCtx(context.Background(), meas, traj, regionAbove(f900))
	if err != nil {
		t.Fatal(err)
	}
	rcfg := DefaultRSSIConfig(f900, k)
	rcfg.Region = &Region{X0: -3, Y0: 0.05, X1: 6, Y1: 5}
	rssi, err := LocalizeRSSI(meas, traj, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	eSAR := sar.Location.Dist2D(tagPos)
	eRSSI := rssi.Location.Dist2D(tagPos)
	if eRSSI < eSAR {
		t.Fatalf("RSSI (%v) beat SAR (%v)?", eRSSI, eSAR)
	}
	// RSSI should still be roughly in the right region (≤ ~2 m).
	if eRSSI > 3 {
		t.Fatalf("RSSI wildly off: %v", eRSSI)
	}
}

func TestLocalizeRSSIErrors(t *testing.T) {
	traj := geom.Line(geom.P2(0, 0), geom.P2(1, 0), 5)
	if _, err := LocalizeRSSI(nil, traj, DefaultRSSIConfig(f900, 1)); err == nil {
		t.Fatal("no measurements accepted")
	}
	meas := synthChannels(traj, geom.P2(0.5, 1), f900, nil, 0, 0, nil)
	bad := DefaultRSSIConfig(f900, 1)
	bad.GridRes = 0
	if _, err := LocalizeRSSI(meas, traj, bad); err == nil {
		t.Fatal("zero resolution accepted")
	}
}

func TestPhaseOnlyLocalization(t *testing.T) {
	// Clean channels: both weightings land on the tag; phase-only must not
	// break anything.
	traj := geom.Line(geom.P2(0, 0), geom.P2(3, 0), 40)
	tagPos := geom.P2(1.4, 2.1)
	meas := synthChannels(traj, tagPos, f900, nil, 0, 0, nil)
	cfg := regionAbove(f900)
	cfg.PhaseOnly = true
	res, err := LocalizeCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Location.Dist2D(tagPos); e > 0.08 {
		t.Fatalf("phase-only error = %v m", e)
	}
	// Zero-amplitude entries (failed disentanglement points) are dropped,
	// not divided by.
	meas[5].H = 0
	if _, err := LocalizeCtx(context.Background(), meas, traj, cfg); err != nil {
		t.Fatalf("zero-amplitude measurement broke phase-only mode: %v", err)
	}
}

func TestPhaseOnlyEqualizesFarPoints(t *testing.T) {
	// With amplitude weighting, measurements near the tag dominate; in
	// phase-only mode the matched filter value at the tag equals the
	// measurement count (all unit vectors align).
	traj := geom.Line(geom.P2(0, 0), geom.P2(3, 0), 30)
	tagPos := geom.P2(1.5, 1.8)
	meas := synthChannels(traj, tagPos, f900, nil, 0, 0, nil)
	cfg := regionAbove(f900)
	cfg.PhaseOnly = true
	res, err := LocalizeCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Peak < float64(len(meas))*0.98 {
		t.Fatalf("phase-only peak %v, want ≈%d (all aligned)", res.Peak, len(meas))
	}
}

func TestUncertainty(t *testing.T) {
	tagPos := geom.P2(1.4, 2.1)
	// Large aperture: sharp peak, small σ.
	big := geom.Line(geom.P2(0, 0.3), geom.P2(3, 0.3), 40)
	measBig := synthChannels(big, tagPos, f900, nil, 0, 0, nil)
	cfg := regionAbove(f900)
	cfg.Region.Y0 = 0.5
	resBig, err := LocalizeCtx(context.Background(), measBig, big, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sxB, syB := Uncertainty(measBig, resBig, cfg)
	// Small aperture: broad peak, larger σ.
	small := geom.Line(geom.P2(1.2, 0.3), geom.P2(1.8, 0.3), 12)
	measSmall := synthChannels(small, tagPos, f900, nil, 0, 0, nil)
	resSmall, err := LocalizeCtx(context.Background(), measSmall, small, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sxS, syS := Uncertainty(measSmall, resSmall, cfg)
	if sxB <= 0 || syB <= 0 {
		t.Fatalf("degenerate σ: %v %v", sxB, syB)
	}
	if sxS <= sxB {
		t.Fatalf("small aperture σx %v not larger than big aperture %v", sxS, sxB)
	}
	if syS <= syB {
		t.Fatalf("small aperture σy %v not larger than big aperture %v", syS, syB)
	}
	// Range (Y) is always softer than cross-range (X) for a linear pass.
	if syB < sxB {
		t.Fatalf("range σ %v sharper than cross-range %v", syB, sxB)
	}
	// Degenerate inputs.
	if sx, _ := Uncertainty(nil, resBig, cfg); !math.IsInf(sx, 1) {
		t.Fatal("empty measurements should be infinite σ")
	}
}

func TestLocalizeDenseDoubleBounceMultipath(t *testing.T) {
	// Stress: channels synthesized with BOTH first- and second-order
	// bounces off flanking steel (a canyon aisle). The nearest-peak rule
	// still recovers the tag.
	traj := geom.Line(geom.P2(0, 0), geom.P2(3, 0), 40)
	tagPos := geom.P2(1.5, 1.6)
	// Images: across y=3 (first order), across y=−1 then y=3 (double).
	ghost1 := geom.P2(1.5, 4.4)  // 2·3 − 1.6
	ghost2 := geom.P2(1.5, -3.6) // across y=−1: −2−1.6
	meas := synthChannels(traj, tagPos, f900,
		[]geom.Point{ghost1, ghost2}, 0.6, 0.2, rng.New(5))
	cfg := regionAbove(f900)
	res, err := LocalizeCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Location.Dist2D(tagPos); e > 0.2 {
		t.Fatalf("dense multipath error = %v (est %v)", e, res.Location)
	}
}
