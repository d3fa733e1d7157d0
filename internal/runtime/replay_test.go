package runtime

import (
	"bytes"
	"context"
	"math"
	"testing"

	"rfly/internal/capture"
)

// replayVsLive runs one full mission, replays its capture log at the
// live settings, and requires the replayed solve to be bit-identical to
// the engine's own streaming solve.
func replayVsLive(t *testing.T, cfg Config) {
	t.Helper()
	ctx := context.Background()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(ctx); err != nil {
		t.Fatal(err)
	}
	logBytes := e.CaptureLog()
	if logBytes == nil {
		t.Fatal("SAR mission produced no capture log")
	}

	want, liveErr := e.solver.Snapshot(ctx)
	got, err := capture.Replay(ctx, logBytes, capture.LiveOptions())
	if liveErr != nil {
		// Too few kept captures to solve: the replay must agree that
		// there is nothing to solve.
		if err == nil {
			t.Fatalf("live solve failed (%v) but replay produced an estimate", liveErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("replay of live log: %v", err)
	}
	for name, pair := range map[string][2]float64{
		"x":       {got.Location.X, want.Location.X},
		"y":       {got.Location.Y, want.Location.Y},
		"peak":    {got.Peak, want.Peak},
		"sigma_x": {got.SigmaX, want.SigmaX},
		"sigma_y": {got.SigmaY, want.SigmaY},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Errorf("seed %d %s: replay %v != live %v (bits differ)", cfg.Seed, name, pair[0], pair[1])
		}
	}
	if got.Total != want.Total || got.Kept != want.Kept {
		t.Errorf("seed %d aperture accounting: replay %d/%d != live %d/%d",
			cfg.Seed, got.Kept, got.Total, want.Kept, want.Total)
	}
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

// TestCaptureSinkPublishesAppendOnly: the sink fires at every commit
// with a valid, monotonically growing log — each publication a byte
// prefix of the next, the last one equal to CaptureLog at mission end.
func TestCaptureSinkPublishesAppendOnly(t *testing.T) {
	e, err := New(testConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	var pubs [][]byte
	e.CaptureSink = func(done int, log []byte) {
		if want := len(pubs) + 1; done != want {
			t.Fatalf("sink fired for %d sorties done, want %d", done, want)
		}
		pubs = append(pubs, log)
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
