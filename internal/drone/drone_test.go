package drone

import (
	"context"
	"math"
	"strings"
	"testing"

	"rfly/internal/geom"
	"rfly/internal/rng"
)

func TestPayloadConstraints(t *testing.T) {
	// The paper's §3 argument: the 35 g relay fits the Bebop 2, a 500 g
	// standalone reader does not.
	b := Bebop2()
	if !b.CanCarry(RelayMassG) {
		t.Fatal("Bebop 2 cannot carry the relay?")
	}
	if b.CanCarry(ReaderMassG) {
		t.Fatal("Bebop 2 carried a full reader?")
	}
	if !Create2().CanCarry(ReaderMassG) {
		t.Fatal("ground robot should carry anything reasonable")
	}
}

func TestOptiTrackAccuracy(t *testing.T) {
	ot := DefaultOptiTrack()
	src := rng.New(1)
	truth := geom.P(1, 2, 1.5)
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		m, ok := ot.Measure(truth, src)
		if !ok {
			t.Fatal("measurement dropped without FoV limit")
		}
		sum += m.Dist(truth)
	}
	// Mean 3D error of iid Gaussian(5mm)/axis ≈ 8 mm; must be sub-cm.
	if mean := sum / n; mean > 0.01 {
		t.Fatalf("mean OptiTrack error = %v m", mean)
	}
}

func TestOptiTrackFieldOfView(t *testing.T) {
	ot := DefaultOptiTrack()
	ot.FieldOfView = func(p geom.Point) bool { return p.X >= 0 }
	src := rng.New(2)
	if _, ok := ot.Measure(geom.P2(-1, 0), src); ok {
		t.Fatal("out-of-view point measured")
	}
	if _, ok := ot.Measure(geom.P2(1, 0), src); !ok {
		t.Fatal("in-view point dropped")
	}
}

func TestFlyJitterAndTracking(t *testing.T) {
	plan := geom.Line(geom.P2(0, 0), geom.P2(5, 0), 50)
	f, _ := Bebop2().FlyCtx(context.Background(), plan, DefaultOptiTrack(), rng.New(3))
	if len(f.True) != 50 || len(f.Measured) != 50 {
		t.Fatalf("points: %d true, %d measured", len(f.True), len(f.Measured))
	}
	// True positions deviate from plan on the order of the jitter.
	var dev float64
	for i, p := range f.True {
		dev += p.Dist(plan.Points[i])
	}
	dev /= float64(len(f.True))
	if dev < 0.005 || dev > 0.1 {
		t.Fatalf("mean wander = %v m, expected a few cm", dev)
	}
	// Measured tracks true to sub-cm.
	var merr float64
	for i := range f.True {
		merr += f.Measured[i].Dist(f.True[i])
	}
	if merr/float64(len(f.True)) > 0.012 {
		t.Fatalf("OptiTrack error too large: %v", merr/float64(len(f.True)))
	}
	if got := f.MeasuredTrajectory().Len(); got != 50 {
		t.Fatalf("trajectory len = %d", got)
	}
	if !strings.Contains(f.String(), "50 planned") {
		t.Fatalf("String = %q", f.String())
	}
}

func TestFlyDeterministic(t *testing.T) {
	plan := geom.Line(geom.P2(0, 0), geom.P2(1, 0), 10)
	a, _ := Create2().FlyCtx(context.Background(), plan, DefaultOptiTrack(), rng.New(7))
	b, _ := Create2().FlyCtx(context.Background(), plan, DefaultOptiTrack(), rng.New(7))
	for i := range a.True {
		if a.True[i] != b.True[i] || a.Measured[i] != b.Measured[i] {
			t.Fatal("same-seed flights differ")
		}
	}
}

func TestFlyDropsUntrackedPoints(t *testing.T) {
	ot := DefaultOptiTrack()
	ot.FieldOfView = func(p geom.Point) bool { return p.X < 2.5 }
	plan := geom.Line(geom.P2(0, 0), geom.P2(5, 0), 11)
	f, _ := Bebop2().FlyCtx(context.Background(), plan, ot, rng.New(4))
	if len(f.True) >= 11 || len(f.True) != len(f.Measured) {
		t.Fatalf("points: %d true, %d measured", len(f.True), len(f.Measured))
	}
	for _, p := range f.True {
		if p.X >= 2.6 {
			t.Fatalf("untracked point kept: %v", p)
		}
	}
}

func TestGroundRobotSteadierThanDrone(t *testing.T) {
	if Create2().PosJitterM >= Bebop2().PosJitterM {
		t.Fatal("robot should wander less than the drone")
	}
	if math.Abs(Bebop2().PosJitterM-0.02) > 1e-12 {
		t.Fatalf("Bebop jitter = %v", Bebop2().PosJitterM)
	}
}
