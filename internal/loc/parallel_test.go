package loc_test

import (
	"context"
	"testing"

	"rfly/internal/drone"
	"rfly/internal/epc"
	"rfly/internal/geom"
	"rfly/internal/loc"
	"rfly/internal/rng"
	"rfly/internal/sim"
	"rfly/internal/world"
)

// testbedSAR collects a Figure-12-style aperture: relay flown on a 3 m
// line over a tag in open space, disentangled channels per point.
func testbedSAR(t testing.TB) ([]loc.Measurement, geom.Trajectory) {
	t.Helper()
	d := sim.New(sim.Config{Scene: world.OpenSpace(), ReaderPos: geom.P(-12, 1, 1.2),
		UseRelay: true, RelayPos: geom.P(0, 0, 0.8)}, 99)
	tg := d.AddTag(epc.NewEPC96(7, 7, 7, 7, 7, 7), geom.P(1.5, 2.0, 0))
	plan := geom.Line(geom.P(0, 0, 0.8), geom.P(3, 0, 0.8), 40)
	flight, _ := drone.Bebop2().FlyCtx(context.Background(), plan, drone.DefaultOptiTrack(), rng.New(99).Split("f"))
	cap, err := d.CollectSARCtx(context.Background(), flight, tg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cap.Disentangled, flight.MeasuredTrajectory()
}

// TestParallelLocalizeBitIdentical is the tentpole's determinism gate:
// the striped grid search must be bit-identical to the serial scan —
// location, peak value, candidates, and every heatmap cell — for any
// worker count.
func TestParallelLocalizeBitIdentical(t *testing.T) {
	meas, traj := testbedSAR(t)
	cfg := loc.DefaultConfig(915e6)
	cfg.Region = &loc.Region{X0: -2, Y0: 0.2, X1: 5, Y1: 5}

	cfg.Workers = 1
	serial, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 7} {
		cfg.Workers = workers
		par, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Location != serial.Location || par.Peak != serial.Peak {
			t.Fatalf("workers=%d: location %+v peak %v, serial %+v peak %v",
				workers, par.Location, par.Peak, serial.Location, serial.Peak)
		}
		if len(par.Candidates) != len(serial.Candidates) {
			t.Fatalf("workers=%d: %d candidates, serial %d",
				workers, len(par.Candidates), len(serial.Candidates))
		}
		for i := range par.Candidates {
			if par.Candidates[i] != serial.Candidates[i] {
				t.Fatalf("workers=%d: candidate %d %+v, serial %+v",
					workers, i, par.Candidates[i], serial.Candidates[i])
			}
		}
		if len(par.Heatmap.Data) != len(serial.Heatmap.Data) {
			t.Fatalf("workers=%d: heatmap size mismatch", workers)
		}
		for i := range par.Heatmap.Data {
			if par.Heatmap.Data[i] != serial.Heatmap.Data[i] {
				t.Fatalf("workers=%d: heatmap cell %d = %v, serial %v",
					workers, i, par.Heatmap.Data[i], serial.Heatmap.Data[i])
			}
		}
	}
}

// TestParallelLocalize3DBitIdentical covers the volumetric search's
// per-line argmax merge: strict-greater per line, merged in ascending
// (z, y) order, must reproduce the serial triple loop exactly.
func TestParallelLocalize3DBitIdentical(t *testing.T) {
	meas, traj := testbedSAR(t)
	cfg := loc.DefaultConfig(915e6)
	cfg.CoarseRes = 0.2
	cfg.FineRes = 0.05
	cfg.Region = &loc.Region{X0: -1, Y0: 0.2, X1: 4, Y1: 4}

	cfg.Workers = 1
	serial, err := loc.Localize3DCtx(context.Background(), meas, traj, cfg, 0, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 3} {
		cfg.Workers = workers
		par, err := loc.Localize3DCtx(context.Background(), meas, traj, cfg, 0, 0.8)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Location != serial.Location || par.Peak != serial.Peak {
			t.Fatalf("workers=%d: location %+v peak %v, serial %+v peak %v",
				workers, par.Location, par.Peak, serial.Location, serial.Peak)
		}
	}
}

// TestLocalizeCancelledMidGrid: a pre-cancelled context must abandon the
// search from inside the striped grid fill, for both serial and parallel
// worker counts.
func TestLocalizeCancelledMidGrid(t *testing.T) {
	meas, traj := testbedSAR(t)
	cfg := loc.DefaultConfig(915e6)
	cfg.Region = &loc.Region{X0: -2, Y0: 0.2, X1: 5, Y1: 5}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 0} {
		cfg.Workers = workers
		if _, err := loc.LocalizeCtx(ctx, meas, traj, cfg); err == nil {
			t.Fatalf("workers=%d: cancelled search returned a result", workers)
		}
		if _, err := loc.Localize3DCtx(ctx, meas, traj, cfg, 0, 0.5); err == nil {
			t.Fatalf("workers=%d: cancelled 3D search returned a result", workers)
		}
	}
}
