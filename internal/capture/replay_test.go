package capture

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"rfly/internal/geom"
	"rfly/internal/loc"
)

// buildTestLog records a clean synthetic mission: 3 sorties × 14 points
// toward a tag at (0.5, 1.5, 0), with a couple of unlocked captures.
func buildTestLog(t *testing.T) ([]byte, [][]Record) {
	t.Helper()
	ctx := context.Background()
	tag := geom.P(0.5, 1.5, 0)
	l := NewLog(testHeader())
	var segs [][]Record
	for s := 1; s <= 3; s++ {
		recs := synthRecords(14, s, tag)
		if s == 2 {
			recs[0].Unlocked = true
			recs[7].Unlocked = true
		}
		l.AppendSegmentCtx(ctx, s, recs)
		segs = append(segs, recs)
	}
	return l.Snapshot(), segs
}

func TestReplaySolvesFromLogAlone(t *testing.T) {
	data, _ := buildTestLog(t)
	rr, err := Replay(context.Background(), data, LiveOptions())
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rr.Segments != 3 || rr.Records != 42 {
		t.Fatalf("provenance: %d segments, %d records", rr.Segments, rr.Records)
	}
	if math.Abs(rr.Location.X-0.5) > 0.1 || math.Abs(rr.Location.Y-1.5) > 0.1 {
		t.Fatalf("replayed solve at (%.3f, %.3f), want near (0.5, 1.5)", rr.Location.X, rr.Location.Y)
	}
	if rr.Total != 42 || rr.Kept != 40 {
		t.Fatalf("robust accounting: total %d kept %d, want 42/40", rr.Total, rr.Kept)
	}
}

// TestReplayBitIdenticalToDirectStream is the in-package half of the
// equivalence story: replaying the log reproduces, bit for bit, a
// streaming solve fed the same batches directly (the cross-stack half —
// against a live sim mission — lives in internal/runtime).
func TestReplayBitIdenticalToDirectStream(t *testing.T) {
	data, segs := buildTestLog(t)
	ctx := context.Background()

	solver, err := loc.NewRobustStreamSolver(testHeader().Config(LiveOptions()))
	if err != nil {
		t.Fatal(err)
	}
	for _, recs := range segs {
		batch := make([]loc.Measurement, len(recs))
		for i, r := range recs {
			batch[i] = r.Measurement()
		}
		solver.AddBatch(ctx, batch)
	}
	want, err := solver.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}

	got, err := Replay(ctx, data, LiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]float64{
		"x":       {got.Location.X, want.Location.X},
		"y":       {got.Location.Y, want.Location.Y},
		"peak":    {got.Peak, want.Peak},
		"sigma_x": {got.SigmaX, want.SigmaX},
		"sigma_y": {got.SigmaY, want.SigmaY},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Errorf("%s: replay %v != direct %v (bits differ)", name, pair[0], pair[1])
		}
	}
}

func TestReplayOverrides(t *testing.T) {
	data, _ := buildTestLog(t)
	ctx := context.Background()

	coarse, err := Replay(ctx, data, ReplayOptions{Robust: true, CoarseRes: 0.25, FineRes: 0.05, Workers: 2})
	if err != nil {
		t.Fatalf("changed-grid replay: %v", err)
	}
	// A 0.25 m lattice over a 2 m collinear aperture has little range
	// resolution; the point of the test is that a changed-grid replay
	// completes and stays in the tag's neighborhood.
	if math.Abs(coarse.Location.X-0.5) > 0.5 || math.Abs(coarse.Location.Y-1.5) > 0.5 {
		t.Fatalf("coarse replay wandered to (%.3f, %.3f)", coarse.Location.X, coarse.Location.Y)
	}

	// Non-robust replay integrates the unlocked captures too.
	plain, err := Replay(ctx, data, ReplayOptions{})
	if err != nil {
		t.Fatalf("non-robust replay: %v", err)
	}
	if plain.Kept != 42 {
		t.Fatalf("non-robust replay kept %d, want all 42", plain.Kept)
	}

	// A region override narrows the search.
	reg := &loc.Region{X0: 0, Y0: 1, X1: 1, Y1: 2}
	narrowed, err := Replay(ctx, data, ReplayOptions{Robust: true, Region: reg})
	if err != nil {
		t.Fatalf("region-override replay: %v", err)
	}
	if narrowed.Location.X < 0 || narrowed.Location.X > 1 {
		t.Fatalf("override region ignored: x = %.3f", narrowed.Location.X)
	}
}

func TestReplayRejectsCorruptLog(t *testing.T) {
	data, _ := buildTestLog(t)
	data[len(data)-2] ^= 0x10
	if _, err := Replay(context.Background(), data, LiveOptions()); !errors.Is(err, ErrInvalidLog) {
		t.Fatalf("corrupt log replayed: %v", err)
	}
}

func TestReplayHonorsCancellation(t *testing.T) {
	data, _ := buildTestLog(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Replay(ctx, data, LiveOptions()); err == nil {
		t.Fatal("cancelled replay returned a result")
	}
}

// TestConcurrentAppendSnapshotReplay backs the CI race gate: a writer
// sealing segments while readers snapshot and replay concurrently.
func TestConcurrentAppendSnapshotReplay(t *testing.T) {
	ctx := context.Background()
	tag := geom.P(0.5, 1.5, 0)
	l := NewLog(testHeader())
	l.AppendSegmentCtx(ctx, 1, synthRecords(14, 1, tag))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 2; s <= 12; s++ {
			l.AppendSegmentCtx(ctx, s, synthRecords(14, s, tag))
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				snap := l.Snapshot()
				if _, err := OpenLog(snap); err != nil {
					t.Errorf("snapshot unreadable mid-append: %v", err)
					return
				}
				if _, err := Replay(ctx, snap, ReplayOptions{Robust: true, CoarseRes: 0.25}); err != nil {
					t.Errorf("replay of live snapshot: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := l.Segments(); got != 12 {
		t.Fatalf("writer sealed %d segments, want 12", got)
	}
}

// TestReplayZeroChannelLogFails: a log whose records all carry H=0 holds
// no matched-filter energy; replay must report an error, not a location.
func TestReplayZeroChannelLogFails(t *testing.T) {
	ctx := context.Background()
	recs := synthRecords(8, 1, geom.P(0.5, 1.5, 0))
	for i := range recs {
		recs[i].H = 0
	}
	l := NewLog(testHeader())
	l.AppendSegmentCtx(ctx, 1, recs)
	if rr, err := Replay(ctx, l.Snapshot(), LiveOptions()); err == nil {
		t.Fatalf("zero-channel log replayed to %+v", rr.Location)
	}
}
