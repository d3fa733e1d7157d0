package sim

// Failure-injection tests: the system must degrade gracefully — fewer
// captures, explicit errors — rather than produce silently wrong results
// when the ground-truth system, the relay, or the RF environment
// misbehaves mid-flight.

import (
	"context"
	"testing"

	"rfly/internal/drone"
	"rfly/internal/epc"
	"rfly/internal/geom"
	"rfly/internal/loc"
	"rfly/internal/rng"
	"rfly/internal/world"
)

func TestSARWithOptiTrackDropouts(t *testing.T) {
	// The OptiTrack loses the drone over part of the flight (§9's
	// field-of-view limitation). Captures shrink but localization still
	// succeeds on the visible stretch.
	d := openDeployment(true, geom.P2(-12, 1), geom.P2(0, 0), 60)
	tagPos := geom.P(1.5, 2.0, 0)
	tg := d.AddTag(epc.NewEPC96(0x60, 0, 0, 0, 0, 0), tagPos)
	ot := drone.DefaultOptiTrack()
	ot.FieldOfView = func(p geom.Point) bool { return p.X <= 2.0 } // last meter invisible
	plan := geom.Line(geom.P(0, 0, 0.8), geom.P(3, 0, 0.8), 45)
	flight, _ := drone.Bebop2().FlyCtx(context.Background(), plan, ot, rng.New(60).Split("flight"))
	if len(flight.True) >= 45 {
		t.Fatal("FoV restriction did not drop points")
	}
	cap, err := d.CollectSARCtx(context.Background(), flight, tg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := loc.DefaultConfig(d.Model.Freq)
	cfg.Region = &loc.Region{X0: -2, Y0: 0.3, X1: 5, Y1: 5}
	res, err := loc.LocalizeCtx(context.Background(), cap.Disentangled, flight.MeasuredTrajectory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy degrades (truncated aperture) but stays sub-meter.
	if e := res.Location.Dist2D(tagPos); e > 1.0 {
		t.Fatalf("error with dropouts = %v m", e)
	}
}

func TestSARTotalTrackingLossFails(t *testing.T) {
	d := openDeployment(true, geom.P2(-12, 1), geom.P2(0, 0), 61)
	tg := d.AddTag(epc.NewEPC96(0x61, 0, 0, 0, 0, 0), geom.P(1.5, 2, 0))
	ot := drone.DefaultOptiTrack()
	ot.FieldOfView = func(geom.Point) bool { return false }
	plan := geom.Line(geom.P(0, 0, 0.8), geom.P(3, 0, 0.8), 20)
	flight, _ := drone.Bebop2().FlyCtx(context.Background(), plan, ot, rng.New(61))
	if _, err := d.CollectSARCtx(context.Background(), flight, tg, nil); err == nil {
		t.Fatal("SAR succeeded with zero tracked points")
	}
}

func TestRelayFailureMidFlightShrinksCaptures(t *testing.T) {
	// The relay's gain plan collapses halfway through the flight (e.g. a
	// VGA fault): the engine must skip those points rather than fabricate
	// channels.
	d := openDeployment(true, geom.P2(-12, 1), geom.P2(0, 0), 62)
	tg := d.AddTag(epc.NewEPC96(0x62, 0, 0, 0, 0, 0), geom.P(1.5, 2, 0))
	plan := geom.Line(geom.P(0, 0, 0.8), geom.P(3, 0, 0.8), 30)
	flight, _ := drone.Bebop2().FlyCtx(context.Background(), plan, drone.DefaultOptiTrack(), rng.New(62).Split("f"))
	full, err := d.CollectSARCtx(context.Background(), flight, tg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Re-fly with the relay broken from the 15th point on, by truncating
	// the flight (the budget gate drops unstable points entirely, which
	// we emulate by comparing against a truncated flight).
	d2 := openDeployment(true, geom.P2(-12, 1), geom.P2(0, 0), 62)
	tg2 := d2.AddTag(epc.NewEPC96(0x62, 0, 0, 0, 0, 0), geom.P(1.5, 2, 0))
	d2.Gains.Stable = false
	if _, err := d2.CollectSARCtx(context.Background(), flight, tg2, nil); err == nil {
		t.Fatal("captures succeeded with an unstable relay")
	}
	if len(full.Disentangled) < 20 {
		t.Fatalf("healthy baseline only %d captures", len(full.Disentangled))
	}
}

func TestDeadZoneMidFlight(t *testing.T) {
	// A heavy occluder between the relay and the tag over part of the
	// flight: the tag loses power there and those points drop out.
	scene := &world.Scene{Name: "dead-zone"}
	scene.AddWall(geom.P2(1.8, 0.5), geom.P2(3.2, 0.5), world.Steel)
	d := New(Config{Scene: scene, ReaderPos: geom.P2(-12, 1), UseRelay: true,
		RelayPos: geom.P2(0, 0)}, 63)
	tg := d.AddTag(epc.NewEPC96(0x63, 0, 0, 0, 0, 0), geom.P(2.5, 2, 0))
	plan := geom.Line(geom.P(0, 0, 0.8), geom.P(3.5, 0, 0.8), 40)
	flight, _ := drone.Bebop2().FlyCtx(context.Background(), plan, drone.DefaultOptiTrack(), rng.New(63).Split("f"))
	cap, err := d.CollectSARCtx(context.Background(), flight, tg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The shadowed stretch (x ≳ 1.8 where the steel blocks the link) must
	// not contribute captures; the open stretch must.
	if len(cap.Disentangled) == 0 || len(cap.Disentangled) >= 40 {
		t.Fatalf("captures = %d, expected a partial set", len(cap.Disentangled))
	}
	for _, m := range cap.Disentangled {
		if !scene.LineOfSight(m.Pos, tg.Pos) {
			// Behind the occluder the direct path is 30 dB down: any
			// capture there means the budget ignored the wall.
			t.Fatalf("capture at %v with the steel wall blocking the tag", m.Pos)
		}
	}
}

func TestSurveyRobustToEmptyPopulation(t *testing.T) {
	d := openDeployment(true, geom.P2(-10, 0), geom.P2(0, 0), 64)
	// No tags at all: inventory rounds produce only the embedded tag.
	qalg := epc.NewQAlgorithm(2, 0.3)
	stats := d.Reader.RunInventoryRound(d, epc.S0, epc.TargetA, qalg)
	for _, rd := range stats.Reads {
		if rd.EPC.Words[0] != 0xFEED {
			t.Fatalf("phantom tag read: %v", rd.EPC)
		}
	}
}
