package runtime

import (
	"bytes"
	"context"
	"math"
	"testing"

	"rfly/internal/capture"
)

// replayVsLive runs one full mission, replays its capture log at the
// live settings across worker counts, and requires every replayed solve
// to be bit-identical to the engine's own streaming solve, to the
// mission result's location, and to the last estimate EstimateSink
// published. It returns the mission result.
func replayVsLive(t *testing.T, cfg Config) MissionResult {
	t.Helper()
	ctx := context.Background()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last *LiveEstimate
	e.EstimateSink = func(est LiveEstimate) { last = &est }
	res, err := e.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	logBytes := e.CaptureLog()
	if logBytes == nil {
		t.Fatal("SAR mission produced no capture log")
	}

	want, liveErr := e.solver.Snapshot(ctx)
	for _, workers := range []int{0, 1, 3} {
		opts := capture.LiveOptions()
		opts.Workers = workers
		got, err := capture.Replay(ctx, logBytes, opts)
		if liveErr != nil {
			// Too few kept captures to solve: the replay must agree that
			// there is nothing to solve.
			if err == nil {
				t.Fatalf("workers=%d: live solve failed (%v) but replay produced an estimate", workers, liveErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("workers=%d: replay of live log: %v", workers, err)
		}
		for name, pair := range map[string][2]float64{
			"x":       {got.Location.X, want.Location.X},
			"y":       {got.Location.Y, want.Location.Y},
			"peak":    {got.Peak, want.Peak},
			"sigma_x": {got.SigmaX, want.SigmaX},
			"sigma_y": {got.SigmaY, want.SigmaY},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Errorf("seed %d workers=%d %s: replay %v != live %v (bits differ)", cfg.Seed, workers, name, pair[0], pair[1])
			}
		}
		if got.Total != want.Total || got.Kept != want.Kept {
			t.Errorf("seed %d workers=%d aperture accounting: replay %d/%d != live %d/%d",
				cfg.Seed, workers, got.Kept, got.Total, want.Kept, want.Total)
		}
		if !res.LocOK || got.Location.X != res.LocX || got.Location.Y != res.LocY {
			t.Errorf("seed %d workers=%d: replay location (%v,%v) != mission result (%v,%v) ok=%v",
				cfg.Seed, workers, got.Location.X, got.Location.Y, res.LocX, res.LocY, res.LocOK)
		}
		if last == nil {
			t.Fatalf("seed %d: solvable mission published no live estimate", cfg.Seed)
		}
		if math.Float64bits(got.SigmaX) != math.Float64bits(last.SigmaX) ||
			math.Float64bits(got.SigmaY) != math.Float64bits(last.SigmaY) ||
			math.Float64bits(got.Peak) != math.Float64bits(last.Peak) ||
			got.Total != last.Total || got.Kept != last.Kept {
			t.Errorf("seed %d workers=%d: replay {sx=%v sy=%v peak=%v %d/%d} != last live estimate {sx=%v sy=%v peak=%v %d/%d}",
				cfg.Seed, workers, got.SigmaX, got.SigmaY, got.Peak, got.Kept, got.Total,
				last.SigmaX, last.SigmaY, last.Peak, last.Kept, last.Total)
		}
	}
	return res
}

// shortSARConfig is a fault-free default mission cut short: two 16-tick
// sorties with six SAR captures each.
func shortSARConfig() Config {
	cfg := DefaultConfig(99)
	cfg.Sorties = 2
	cfg.TicksPerSortie = 16
	cfg.SARPointsPerSortie = 6
	return cfg
}

// TestReplayBitIdenticalToLiveMission is the ISSUE's acceptance gate:
// across many seeds — fault-laden single-relay missions and swarm
// missions with a mid-aperture kill — re-solving from the capture log
// alone reproduces the live streaming solve bit for bit.
func TestReplayBitIdenticalToLiveMission(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		replayVsLive(t, testConfig(seed))
	}
	replayVsLive(t, swarmConfig(3))
	replayVsLive(t, killAt(swarmConfig(7), 45))
}

// TestReplayEquivalence replays the short fault-free mission, whose
// aperture is large enough to localize, so every replay-vs-live check
// runs rather than the "nothing to solve" branch.
func TestReplayEquivalence(t *testing.T) {
	if res := replayVsLive(t, shortSARConfig()); !res.LocOK {
		t.Fatal("short SAR mission did not localize")
	}
}

// TestReplayChangedGridFromMissionLog: a real mission's log re-solves
// under different grid/robustness settings — the Fig. 12 what-if — with
// no engine and no sim in the loop.
func TestReplayChangedGridFromMissionLog(t *testing.T) {
	ctx := context.Background()
	e, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(ctx); err != nil {
		t.Fatal(err)
	}
	rr, err := capture.Replay(ctx, e.CaptureLog(), capture.ReplayOptions{
		CoarseRes: 0.25, FineRes: 0.1, Workers: 2,
	})
	if err != nil {
		t.Fatalf("changed-grid replay: %v", err)
	}
	if rr.Kept != rr.Total {
		t.Fatalf("non-robust replay kept %d of %d", rr.Kept, rr.Total)
	}
}

// TestCaptureLogProvenance: the log's header carries the mission's
// identity (seed, config hash, carrier, region) and its segments mirror
// the committed sortie results one for one.
func TestCaptureLogProvenance(t *testing.T) {
	cfg := testConfig(6)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rd, err := capture.OpenLog(e.CaptureLog())
	if err != nil {
		t.Fatal(err)
	}
	if rd.Header() != e.cfg.captureHeader() {
		t.Fatalf("log header %+v != config header %+v", rd.Header(), e.cfg.captureHeader())
	}
	segIdx := 0
	for _, s := range e.results {
		if s.SARPoints == 0 {
			continue
		}
		seg := rd.Segment(segIdx)
		if seg.Sortie() != s.Sortie+1 || seg.Count() != s.SARPoints {
			t.Fatalf("segment %d is sortie %d × %d records; results say sortie %d × %d",
				segIdx, seg.Sortie(), seg.Count(), s.Sortie+1, s.SARPoints)
		}
		segIdx++
	}
	if segIdx != rd.NumSegments() {
		t.Fatalf("log has %d segments, results account for %d", rd.NumSegments(), segIdx)
	}
}

// TestCaptureLogAtCommitAppendOnly: the capture log read at every
// commit — from CheckpointSink, as the fleet scheduler publishes it — is
// valid and monotonically growing: each publication a byte prefix of
// the next, the last one equal to CaptureLog at mission end.
func TestCaptureLogAtCommitAppendOnly(t *testing.T) {
	e, err := New(testConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	var pubs [][]byte
	e.CheckpointSink = func(done int, _ []byte) {
		if want := len(pubs) + 1; done != want {
			t.Fatalf("sink fired for %d sorties done, want %d", done, want)
		}
		pubs = append(pubs, e.CaptureLog())
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(pubs) != e.cfg.Sorties {
		t.Fatalf("sink fired %d times for %d sorties", len(pubs), e.cfg.Sorties)
	}
	for i, p := range pubs {
		if _, err := capture.OpenLog(p); err != nil {
			t.Fatalf("publication %d unreadable: %v", i, err)
		}
		if i > 0 && !bytes.Equal(pubs[i-1], p[:len(pubs[i-1])]) {
			t.Fatalf("publication %d is not an extension of publication %d", i, i-1)
		}
	}
	if !bytes.Equal(pubs[len(pubs)-1], e.CaptureLog()) {
		t.Fatal("final publication differs from CaptureLog at mission end")
	}
}

// TestKillResumeCaptureLogIdentical: a mission killed at a sortie
// boundary and resumed from its checkpoint finishes with a capture log
// byte-identical to the uninterrupted mission's — the log survives the
// v4 checkpoint round trip whole.
func TestKillResumeCaptureLogIdentical(t *testing.T) {
	cfg := testConfig(12)
	ctx := context.Background()

	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Run(ctx); err != nil {
		t.Fatal(err)
	}

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunSorties(ctx, 1); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(cfg, e.SnapshotCtx(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.CaptureLog(), full.CaptureLog()) {
		t.Fatal("resumed mission's capture log differs from the uninterrupted one")
	}
}
