package loc_test

import (
	"context"
	"fmt"
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
	cap, err := d.CollectSARCtx(context.Background(), flight, tg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cap.Disentangled, flight.MeasuredTrajectory()
}

// sameResult fails t unless got is bit-identical to want: location, peak
// value, candidates, and every heatmap cell.
func sameResult(t *testing.T, tag string, got, want *loc.Result) {
	t.Helper()
	if got.Location != want.Location || got.Peak != want.Peak {
		t.Fatalf("%s: location %+v peak %v, serial %+v peak %v",
			tag, got.Location, got.Peak, want.Location, want.Peak)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: %d candidates, serial %d", tag, len(got.Candidates), len(want.Candidates))
	}
	for i := range got.Candidates {
		if got.Candidates[i] != want.Candidates[i] {
			t.Fatalf("%s: candidate %d %+v, serial %+v", tag, i, got.Candidates[i], want.Candidates[i])
		}
	}
	if len(got.Heatmap.Data) != len(want.Heatmap.Data) {
		t.Fatalf("%s: heatmap size mismatch", tag)
	}
	for i := range got.Heatmap.Data {
		if got.Heatmap.Data[i] != want.Heatmap.Data[i] {
			t.Fatalf("%s: heatmap cell %d = %v, serial %v", tag, i, got.Heatmap.Data[i], want.Heatmap.Data[i])
		}
	}
}

// serialTestbed is the testbed aperture, the Figure-6 grid config over
// it, and the serial batch solve every parallel path is held to.
func serialTestbed(t *testing.T) ([]loc.Measurement, geom.Trajectory, loc.Config, *loc.Result) {
	t.Helper()
	meas, traj := testbedSAR(t)
	cfg := loc.DefaultConfig(915e6)
	cfg.Region = &loc.Region{X0: -2, Y0: 0.2, X1: 5, Y1: 5}
	cfg.Workers = 1
	serial, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return meas, traj, cfg, serial
}

// TestParallelLocalizeBitIdentical is the tentpole's determinism gate:
// the striped grid search must be bit-identical to the serial scan —
// location, peak value, candidates, and every heatmap cell — for any
// worker count.
func TestParallelLocalizeBitIdentical(t *testing.T) {
	meas, traj, cfg, serial := serialTestbed(t)
	for _, workers := range []int{0, 2, 3, 7} {
		cfg.Workers = workers
		par, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameResult(t, fmt.Sprintf("workers=%d", workers), par, serial)
	}
}

// TestParallelEquivalence asks for more workers than the grid has rows:
// the pool clamps to one row per worker, and the scan must still match
// the serial one bit for bit.
func TestParallelEquivalence(t *testing.T) {
	meas, traj, cfg, serial := serialTestbed(t)
	cfg.Workers = 1 << 16
	par, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "workers=65536", par, serial)
}

// TestStreamEquivalence holds the streaming accumulator's Snapshot to
// the serial batch solve's bits at every worker count, however the
// capture stream is chopped into batches: per-cell accumulation order
// is arrival order, so chopping never moves a bit (the invariant the
// checkpoint codec leans on).
func TestStreamEquivalence(t *testing.T) {
	ctx := context.Background()
	meas, _, cfg, serial := serialTestbed(t)
	chops := [][]int{{len(meas)}, {1, 7, len(meas) - 8}}
	for _, workers := range []int{1, 2, 4, 8, 0} {
		cfg.Workers = workers
		for _, chop := range chops {
			s, err := loc.NewStreamSolver(cfg)
			if err != nil {
				t.Fatal(err)
			}
			off := 0
			for _, n := range chop {
				s.AddBatch(ctx, meas[off:off+n])
				off += n
			}
			snap, err := s.Snapshot(ctx)
			if err != nil {
				t.Fatalf("workers=%d chop=%v: %v", workers, chop, err)
			}
			sameResult(t, fmt.Sprintf("stream workers=%d chop=%v", workers, chop), snap.Result, serial)
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

// BenchmarkGridSearch times the Figure-6 batch solve on the testbed
// aperture, serial against the striped worker pool.
func BenchmarkGridSearch(b *testing.B) {
	meas, traj := testbedSAR(b)
	cfg := loc.DefaultConfig(915e6)
	cfg.Region = &loc.Region{X0: -2, Y0: 0.2, X1: 5, Y1: 5}
	for _, workers := range []int{1, 0} {
		cfg.Workers = workers
		cfg := cfg
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStream times the streaming accumulator on the testbed
// aperture: folding the whole aperture into a fresh grid, and the
// finalize over pre-accumulated sums that the live estimate pays per
// sortie instead of a full batch solve.
func BenchmarkStream(b *testing.B) {
	meas, _ := testbedSAR(b)
	cfg := loc.DefaultConfig(915e6)
	cfg.Region = &loc.Region{X0: -2, Y0: 0.2, X1: 5, Y1: 5}
	b.Run("add_aperture", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := loc.NewStreamSolver(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s.AddBatch(context.Background(), meas)
		}
	})
	s, err := loc.NewStreamSolver(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.AddBatch(context.Background(), meas)
	b.Run("finalize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Snapshot(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRefineStripedOnTestbed holds the Figure-12 testbed solve, whose
// refinement stripes its candidate's 21 fine window rows across the
// worker pool, to the serial solve's bits — location, peak and every
// candidate — at worker counts that split the rows unevenly.
func TestRefineStripedOnTestbed(t *testing.T) {
	meas, traj, cfg, serial := serialTestbed(t)
	for _, workers := range []int{2, 3, 8} {
		cfg.Workers = workers
		par, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameResult(t, fmt.Sprintf("refine workers=%d", workers), par, serial)
	}
}
