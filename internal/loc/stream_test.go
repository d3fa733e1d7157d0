package loc

import (
	"context"
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"rfly/internal/geom"
	"rfly/internal/rng"
)

// streamScenario is one Fig. 12-style testbed case for the equivalence
// gates: measurements plus the trajectory built from their positions (the
// same trajectory a StreamSolver reconstructs internally).
type streamScenario struct {
	name string
	meas []Measurement
	cfg  Config
}

func streamScenarios() []streamScenario {
	cleanTraj := geom.Line(geom.P2(0, 0.3), geom.P2(3, 0.3), 40)
	clean := synthChannels(cleanTraj, geom.P2(1.5, 2.0), f900, nil, 0, 0, nil)

	ghostTraj := geom.Line(geom.P2(0, 0), geom.P2(2.5, 0), 36)
	ghost := synthChannels(ghostTraj, geom.P2(1.2, 1.0), f900,
		[]geom.Point{geom.P2(1.2, 3.4)}, 0.9, 0, nil)

	noisyTraj := geom.Line(geom.P2(0, 0), geom.P2(3, 0), 40)
	noisy := synthChannels(noisyTraj, geom.P2(2.0, 1.5), f900, nil, 0, 0.3, rng.New(11))

	phase := synthChannels(cleanTraj, geom.P2(1.4, 2.1), f900, nil, 0, 0.1, rng.New(12))
	phase[7].H = 0 // failed disentanglement point: dropped, not divided by
	phaseCfg := regionAbove(f900)
	phaseCfg.PhaseOnly = true

	base := regionAbove(f900)
	return []streamScenario{
		{"clean-los", clean, base},
		{"multipath-ghost", ghost, base},
		{"noisy", noisy, base},
		{"phase-only", phase, phaseCfg},
	}
}

func trajOf(meas []Measurement) geom.Trajectory {
	pts := make([]geom.Point, len(meas))
	for i, m := range meas {
		pts[i] = m.Pos
	}
	return geom.Trajectory{Points: pts}
}

// requireSameResult asserts bitwise equality of two solve results:
// location, peak, every candidate, and every heatmap cell.
func requireSameResult(t *testing.T, tag string, batch, stream *Result) {
	t.Helper()
	if batch.Location != stream.Location {
		t.Fatalf("%s: location %v != batch %v", tag, stream.Location, batch.Location)
	}
	if batch.Peak != stream.Peak {
		t.Fatalf("%s: peak %.17g != batch %.17g", tag, stream.Peak, batch.Peak)
	}
	if len(batch.Candidates) != len(stream.Candidates) {
		t.Fatalf("%s: %d candidates != batch %d", tag, len(stream.Candidates), len(batch.Candidates))
	}
	for i := range batch.Candidates {
		if batch.Candidates[i] != stream.Candidates[i] {
			t.Fatalf("%s: candidate %d %+v != batch %+v", tag, i, stream.Candidates[i], batch.Candidates[i])
		}
	}
	if batch.Heatmap.Cols != stream.Heatmap.Cols || batch.Heatmap.Rows != stream.Heatmap.Rows {
		t.Fatalf("%s: heatmap %dx%d != batch %dx%d", tag,
			stream.Heatmap.Cols, stream.Heatmap.Rows, batch.Heatmap.Cols, batch.Heatmap.Rows)
	}
	for i, v := range batch.Heatmap.Data {
		if stream.Heatmap.Data[i] != v {
			t.Fatalf("%s: heatmap cell %d = %.17g != batch %.17g", tag, i, stream.Heatmap.Data[i], v)
		}
	}
}

// TestStreamFinalizeBitIdenticalToBatch is the tentpole invariant:
// finalizing a stream — fed through any mix of Add and AddBatch, at every
// worker count — is bit-identical to the batch LocalizeCtx over the same
// measurements, error bars included.
func TestStreamFinalizeBitIdenticalToBatch(t *testing.T) {
	for _, sc := range streamScenarios() {
		traj := trajOf(sc.meas)
		batchRes, err := LocalizeCtx(context.Background(), sc.meas, traj, sc.cfg)
		if err != nil {
			t.Fatalf("%s: batch: %v", sc.name, err)
		}
		bsx, bsy := Uncertainty(sc.meas, batchRes, sc.cfg)
		for _, workers := range []int{1, 2, 4, 8} {
			cfg := sc.cfg
			cfg.Workers = workers
			s, err := NewStreamSolver(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Mixed feeding: single captures, then batches of varying size.
			s.AddBatch(context.Background(), sc.meas[0:1])
			s.AddBatch(context.Background(), sc.meas[1:2])
			s.AddBatch(context.Background(), sc.meas[2:9])
			s.AddBatch(context.Background(), sc.meas[9:])
			snap, err := s.Snapshot(context.Background())
			if err != nil {
				t.Fatalf("%s/w%d: snapshot: %v", sc.name, workers, err)
			}
			requireSameResult(t, sc.name, batchRes, snap.Result)
			if snap.SigmaX != bsx || snap.SigmaY != bsy {
				t.Fatalf("%s/w%d: σ (%.17g, %.17g) != batch (%.17g, %.17g)",
					sc.name, workers, snap.SigmaX, snap.SigmaY, bsx, bsy)
			}
			if snap.Total != len(sc.meas) || snap.Kept != len(sc.meas) {
				t.Fatalf("%s/w%d: accounting %d/%d", sc.name, workers, snap.Kept, snap.Total)
			}
		}
	}
}

// TestRobustStreamMatchesLocalizeRobust holds the same invariant for the
// robust path: unlocked captures rejected at Add time, σ widened by the
// aperture loss — bit-identical to LocalizeRobustCtx.
func TestRobustStreamMatchesLocalizeRobust(t *testing.T) {
	meas, traj, _ := robustScenario(45, 15, 32)
	cfg := robustCfg(915e6)
	batch, err := LocalizeRobustCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		wcfg := cfg
		wcfg.Workers = workers
		s, err := NewRobustStreamSolver(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range meas {
			s.AddBatch(context.Background(), meas[i:i+1])
		}
		snap, err := s.Snapshot(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "robust", batch.Result, snap.Result)
		if snap.Total != batch.Total || snap.Kept != batch.Kept {
			t.Fatalf("w%d: accounting %d/%d, batch %d/%d",
				workers, snap.Kept, snap.Total, batch.Kept, batch.Total)
		}
		if snap.SigmaX != batch.SigmaX || snap.SigmaY != batch.SigmaY {
			t.Fatalf("w%d: σ (%.17g, %.17g) != batch (%.17g, %.17g)",
				workers, snap.SigmaX, snap.SigmaY, batch.SigmaX, batch.SigmaY)
		}
	}
}

// TestStreamSnapshotDoesNotConsume: a mid-flight snapshot must neither
// perturb the accumulator nor see data it does not have yet.
func TestStreamSnapshotDoesNotConsume(t *testing.T) {
	sc := streamScenarios()[0]
	traj := trajOf(sc.meas)
	batchFinal, err := LocalizeCtx(context.Background(), sc.meas, traj, sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamSolver(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AddBatch(context.Background(), sc.meas[:12])
	mid, err := s.Snapshot(context.Background())
	if err != nil {
		t.Fatalf("mid-flight snapshot with 12 captures: %v", err)
	}
	// The mid-flight estimate equals a batch solve over the prefix.
	batchMid, err := LocalizeCtx(context.Background(), sc.meas[:12], trajOf(sc.meas[:12]), sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "mid-flight", batchMid, mid.Result)
	// Finishing the stream after a snapshot still matches the full batch.
	s.AddBatch(context.Background(), sc.meas[12:])
	final, err := s.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "post-snapshot finalize", batchFinal, final.Result)
}

// TestAppendGridEncodesSums: AppendGrid writes every cell's partial sum,
// row-major, as little-endian float64 bits (real, then imaginary) after
// whatever the caller's buffer already holds.
func TestAppendGridEncodesSums(t *testing.T) {
	meas, _, _ := robustScenario(45, 15, 36)
	s, err := NewRobustStreamSolver(robustCfg(915e6))
	if err != nil {
		t.Fatal(err)
	}
	s.AddBatch(context.Background(), meas)
	const prefix = "head"
	b := s.AppendGrid([]byte(prefix))
	cols, rows := s.Dims()
	if string(b[:len(prefix)]) != prefix || len(b) != len(prefix)+16*cols*rows {
		t.Fatalf("AppendGrid gave %d bytes for a %d×%d lattice after a %d-byte prefix",
			len(b), cols, rows, len(prefix))
	}
	cells := b[len(prefix):]
	for i, z := range s.sum {
		re := binary.LittleEndian.Uint64(cells[16*i:])
		im := binary.LittleEndian.Uint64(cells[16*i+8:])
		if re != math.Float64bits(real(z)) || im != math.Float64bits(imag(z)) {
			t.Fatalf("cell %d encodes (%x, %x), want the bits of %v", i, re, im, z)
		}
	}
}

// TestStreamRestoreRoundTrip: serializing the grid mid-stream and
// restoring it into a fresh solver (grid verbatim, bookkeeping replayed
// from history) must leave the finalize bit-identical.
func TestStreamRestoreRoundTrip(t *testing.T) {
	meas, traj, _ := robustScenario(45, 15, 36)
	cfg := robustCfg(915e6)
	batch, err := LocalizeRobustCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRobustStreamSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AddBatch(context.Background(), meas[:20])
	sum := make([]complex128, len(s.sum))
	copy(sum, s.sum)

	restored, err := NewRobustStreamSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(sum, meas[:20]); err != nil {
		t.Fatal(err)
	}
	if restored.Total() != 20 {
		t.Fatalf("restored total = %d", restored.Total())
	}
	restored.AddBatch(context.Background(), meas[20:])
	snap, err := restored.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "restore", batch.Result, snap.Result)
	if snap.SigmaX != batch.SigmaX || snap.SigmaY != batch.SigmaY {
		t.Fatalf("restored σ (%.17g, %.17g) != batch (%.17g, %.17g)",
			snap.SigmaX, snap.SigmaY, batch.SigmaX, batch.SigmaY)
	}
	// A grid of the wrong size must be refused.
	if err := restored.Restore(sum[:len(sum)-1], meas[:20]); err == nil {
		t.Fatal("short grid accepted")
	}
}

func TestStreamSolverErrors(t *testing.T) {
	cfg := DefaultConfig(f900) // no Region
	if _, err := NewStreamSolver(cfg); err == nil {
		t.Fatal("streaming solver without a Region accepted")
	}
	cfg = regionAbove(f900)
	cfg.FineRes = 0
	if _, err := NewStreamSolver(cfg); err == nil {
		t.Fatal("zero resolution accepted")
	}
	cfg = regionAbove(f900)
	cfg.CoarseRes = 1e-6
	if _, err := NewStreamSolver(cfg); err == nil {
		t.Fatal("oversized coarse lattice accepted")
	}
	cfg = regionAbove(f900)
	cfg.FineRes = 1e-7
	if _, err := NewStreamSolver(cfg); err == nil {
		t.Fatal("oversized fine window accepted")
	}
	s, err := NewStreamSolver(regionAbove(f900))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(context.Background()); err == nil {
		t.Fatal("snapshot of an empty stream succeeded")
	}
	// Robust solver fed only unlocked captures: loud failure, like
	// LocalizeRobust on a dark flight.
	rs, err := NewRobustStreamSolver(regionAbove(f900))
	if err != nil {
		t.Fatal(err)
	}
	meas, _, _ := robustScenario(20, 18, 34)
	for i := range meas {
		rs.AddBatch(context.Background(), meas[i:i+1])
	}
	if rs.Kept() != 2 {
		t.Fatalf("kept %d of a mostly-dark flight", rs.Kept())
	}
	if _, err := rs.Snapshot(context.Background()); err == nil {
		t.Fatal("2 surviving measurements should not produce a solve")
	}
}

// TestStreamConcurrentAddBatch drives concurrent producers plus a
// mid-flight snapshot reader through the accumulator under the race
// detector. (Concurrent interleavings legitimately reorder the per-cell
// sums, so this asserts accounting and a sane final solve, not
// bit-equality — the ordering invariant belongs to single-producer use.)
func TestStreamConcurrentAddBatch(t *testing.T) {
	sc := streamScenarios()[0]
	s, err := NewStreamSolver(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for part := 0; part < 4; part++ {
		lo := part * len(sc.meas) / 4
		hi := (part + 1) * len(sc.meas) / 4
		wg.Add(1)
		go func(chunk []Measurement) {
			defer wg.Done()
			for i := range chunk {
				s.AddBatch(context.Background(), chunk[i:i+1])
			}
		}(sc.meas[lo:hi])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Snapshots race the producers; errors (< 3 captures yet) are fine.
		for i := 0; i < 5; i++ {
			s.Snapshot(context.Background())
		}
	}()
	wg.Wait()
	if s.Total() != len(sc.meas) {
		t.Fatalf("total = %d, want %d", s.Total(), len(sc.meas))
	}
	snap, err := s.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if e := snap.Location.Dist2D(geom.P2(1.5, 2.0)); e > 0.07 || math.IsNaN(e) {
		t.Fatalf("concurrent-fed solve off by %v m", e)
	}
}

// TestZeroChannelApertureFails: an aperture whose every channel is zero —
// PhaseOnly dropping every point, or a capture log of H=0 records — has
// no matched-filter energy anywhere, so the flat grid's "peak" is an
// arbitrary corner cell. Batch, plain-stream and robust-stream solves
// must all fail rather than report it.
func TestZeroChannelApertureFails(t *testing.T) {
	ctx := context.Background()
	traj := geom.Line(geom.P2(0, 0.3), geom.P2(3, 0.3), 8)
	meas := make([]Measurement, len(traj.Points))
	for i, p := range traj.Points {
		meas[i] = Measurement{Pos: p}
	}
	for _, phaseOnly := range []bool{false, true} {
		cfg := regionAbove(f900)
		cfg.PhaseOnly = phaseOnly
		if res, err := LocalizeCtx(ctx, meas, traj, cfg); err == nil {
			t.Fatalf("phase-only=%v: batch solve of a zero aperture returned %+v", phaseOnly, res.Location)
		}
		if res, err := LocalizeRobustCtx(ctx, meas, traj, cfg); err == nil {
			t.Fatalf("phase-only=%v: robust solve of a zero aperture returned %+v", phaseOnly, res.Location)
		}
		for _, robust := range []bool{false, true} {
			s, err := newStreamSolver(cfg, robust)
			if err != nil {
				t.Fatal(err)
			}
			s.AddBatch(ctx, meas)
			if res, err := s.Snapshot(ctx); err == nil {
				t.Fatalf("phase-only=%v robust=%v: stream snapshot of a zero aperture returned %+v",
					phaseOnly, robust, res.Location)
			}
		}
	}
}
