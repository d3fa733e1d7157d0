package sim

import (
	"context"
	"testing"

	"rfly/internal/drone"
	"rfly/internal/epc"
	"rfly/internal/geom"
	"rfly/internal/loc"
)

// TestCollectSARStreamMatchesBatch is the sim-layer half of the streaming
// invariant: a StreamSolver fed the collected capture point by point
// must finalize to the exact bits the batch localizer computes from the
// whole capture. This holds because the solver integrates cells in
// arrival order, so batch boundaries never change the bits.
func TestCollectSARStreamMatchesBatch(t *testing.T) {
	d := openDeployment(true, geom.P2(-15, 1), geom.P2(0, 0), 8)
	d.ShadowSigmaDB = 0
	tagPos := geom.P(1.5, 2.0, 0)
	tg := d.AddTag(epc.NewEPC96(9, 0, 0, 0, 0, 0), tagPos)

	plan := geom.Line(geom.P(0, 0, 0.8), geom.P(3, 0, 0.8), 40)
	flight, _ := drone.Bebop2().FlyCtx(context.Background(), plan, drone.DefaultOptiTrack(), d.src.Split("flight"))

	cfg := loc.DefaultConfig(d.Model.Freq)
	cfg.Region = &loc.Region{X0: -2, Y0: 0.3, X1: 5, Y1: 5}
	solver, err := loc.NewStreamSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cap, err := d.CollectSARCtx(context.Background(), flight, tg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cap.Disentangled {
		solver.AddBatch(context.Background(), []loc.Measurement{m})
	}
	if solver.Total() != len(cap.Disentangled) {
		t.Fatalf("solver saw %d measurements, capture holds %d", solver.Total(), len(cap.Disentangled))
	}

	batch, err := loc.LocalizeCtx(context.Background(), cap.Disentangled, flight.MeasuredTrajectory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := solver.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Location != batch.Location {
		t.Fatalf("streamed solve %v != batch %v", snap.Location, batch.Location)
	}
	if snap.Peak != batch.Peak {
		t.Fatalf("streamed peak %.17g != batch %.17g", snap.Peak, batch.Peak)
	}
	for i, v := range snap.Heatmap.Data {
		if v != batch.Heatmap.Data[i] {
			t.Fatalf("heatmap cell %d: stream %.17g != batch %.17g", i, v, batch.Heatmap.Data[i])
		}
	}
	if e := snap.Location.Dist2D(tagPos); e > 0.4 {
		t.Fatalf("streamed localization error = %v m", e)
	}
}

// TestDisentangleOneMatchesBatch pins the per-point equivalence the
// streaming path rests on: the batch divide is loc.Disentangle point by
// point, dead-reference guard and lock provenance included.
func TestDisentangleOneMatchesBatch(t *testing.T) {
	target := []loc.Measurement{
		{Pos: geom.P2(0, 0), H: complex(2, 1)},
		{Pos: geom.P2(1, 0), H: complex(-3, 0.5), Unlocked: true},
		{Pos: geom.P2(2, 0), H: complex(0.1, -0.2)},
	}
	embedded := []loc.Measurement{
		{Pos: geom.P2(0, 0), H: complex(1, -1)},
		{Pos: geom.P2(1, 0), H: complex(0.5, 2), Unlocked: true},
		{Pos: geom.P2(2, 0), H: 0}, // dead reference: guard must zero it
	}
	batch, err := DisentangleCapture(target, embedded)
	if err != nil {
		t.Fatal(err)
	}
	for i := range target {
		one := loc.Disentangle(target[i], embedded[i])
		if one != batch[i] {
			t.Fatalf("point %d: loc.Disentangle %+v != batch %+v", i, one, batch[i])
		}
	}
}

// TestDisentangleCaptureErrorPaths pins the batch divide's edge
// contract: misaligned or empty captures are errors (a half-logged
// flight must not silently localize), while a dead embedded reference —
// the relay's own tag unpowered at one aperture point — zeroes that
// element instead of dividing by nothing.
func TestDisentangleCaptureErrorPaths(t *testing.T) {
	m := func(h complex128) loc.Measurement {
		return loc.Measurement{Pos: geom.P(0, 0, 0.8), H: h}
	}

	if _, err := DisentangleCapture(nil, nil); err == nil {
		t.Fatal("empty capture disentangled without error")
	}
	if _, err := DisentangleCapture(
		[]loc.Measurement{m(1), m(2)},
		[]loc.Measurement{m(1)},
	); err == nil {
		t.Fatal("misaligned target/embedded capture disentangled without error")
	}

	// A zero-amplitude (and a sub-threshold 1e-16) embedded reference
	// trips the dead-reference guard: the element comes back zeroed, the
	// batch succeeds, and the live elements are untouched.
	tgt := []loc.Measurement{m(complex(2, 2)), m(complex(1, 0)), m(complex(4, 0))}
	tgt[2].Unlocked = true
	emb := []loc.Measurement{m(0), m(complex(1e-16, 0)), m(complex(2, 0))}
	dis, err := DisentangleCapture(tgt, emb)
	if err != nil {
		t.Fatalf("dead-reference capture errored: %v", err)
	}
	if dis[0].H != 0 || dis[1].H != 0 {
		t.Fatalf("dead references not zeroed: %v, %v", dis[0].H, dis[1].H)
	}
	if dis[2].H != complex(2, 0) {
		t.Fatalf("live element %v, want (2+0i)", dis[2].H)
	}
	// Pose and lock provenance ride from the target capture.
	if dis[2].Pos != tgt[2].Pos || !dis[2].Unlocked || dis[0].Unlocked {
		t.Fatal("disentangled measurements lost pose/lock provenance")
	}
}
