package loc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rfly/internal/geom"
	"rfly/internal/obs"
	"rfly/internal/stats"
)

// serialRefine is the reference the striped refinement is held to: the
// plain row-major scan of the fine window of ±coarseRes around (cx, cy),
// strict > in y-then-x order, starting from the window center at −1.
func serialRefine(meas []Measurement, cx, cy float64, cfg Config) (x, y, v float64) {
	n := gridCount(2*cfg.CoarseRes, cfg.FineRes)
	ox, oy := cx-cfg.CoarseRes, cy-cfg.CoarseRes
	v, x, y = -1, cx, cy
	for iy := 0; iy < n; iy++ {
		yy := oy + float64(iy)*cfg.FineRes
		for ix := 0; ix < n; ix++ {
			xx := ox + float64(ix)*cfg.FineRes
			if p := projection(meas, xx, yy, 0, cfg.Freq); p > v {
				v, x, y = p, xx, yy
			}
		}
	}
	return x, y, v
}

// sharedEdgeCase is two coarse peaks two cells apart on one row, so the
// right edge column of the first peak's fine window is the left edge
// column of the second's, with the synthetic target on that shared edge.
func sharedEdgeCase() ([]Measurement, Config, *stats.Heatmap, []gridPeak) {
	cfg := DefaultConfig(f900)
	hm := stats.NewHeatmap(0, 0, cfg.CoarseRes, cfg.CoarseRes, 8, 4)
	peaks := []gridPeak{{c: 2, r: 1, v: 2}, {c: 4, r: 1, v: 1}}
	cx, cy := hm.CellCenter(peaks[0].c, peaks[0].r)
	tgt := geom.P(cx+cfg.CoarseRes, cy+3*cfg.FineRes, 0)
	return syntheticPeakMeas(tgt, f900), cfg, hm, peaks
}

// TestRefineBitIdenticalAcrossWorkers: the one striped fan-out per
// finalize returns the serial window scan's bits — every candidate's
// location and value, hence the chosen location and peak — at every
// worker count, including where two peaks' windows share an edge.
func TestRefineBitIdenticalAcrossWorkers(t *testing.T) {
	type refineCase struct {
		name  string
		meas  []Measurement
		cfg   Config
		hm    *stats.Heatmap
		peaks []gridPeak
	}
	meas, cfg, hm, peaks := sharedEdgeCase()
	cases := []refineCase{{"shared-edge", meas, cfg, hm, peaks}}
	for _, sc := range streamScenarios() {
		s, err := NewStreamSolver(sc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.AddBatch(context.Background(), sc.meas)
		hm := s.heatmap()
		meas := sc.meas
		if sc.cfg.PhaseOnly {
			meas = normalizeAmplitudes(meas)
		}
		peaks := localMaxima(hm, sc.cfg.PeakThreshold, sc.cfg.MaxCandidates,
			suppressRadiusCells(sc.cfg.Freq, sc.cfg.CoarseRes))
		cases = append(cases, refineCase{sc.name, meas, sc.cfg, hm, peaks})
	}
	for _, rc := range cases {
		traj := trajOf(rc.meas)
		want := make(map[geom.Point]float64, len(rc.peaks))
		for _, p := range rc.peaks {
			cx, cy := rc.hm.CellCenter(p.c, p.r)
			x, y, v := serialRefine(rc.meas, cx, cy, rc.cfg)
			want[geom.P2(x, y)] = v
		}
		var first *Result
		for _, workers := range []int{1, 2, 3, 8} {
			cfg := rc.cfg
			cfg.Workers = workers
			tag := fmt.Sprintf("%s/w%d", rc.name, workers)
			res, err := refineAndPick(context.Background(), rc.meas, traj, cfg, rc.hm, rc.peaks)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if len(res.Candidates) != len(rc.peaks) {
				t.Fatalf("%s: %d candidates from %d peaks", tag, len(res.Candidates), len(rc.peaks))
			}
			for _, c := range res.Candidates {
				if v, ok := want[c.Location]; !ok || v != c.Value {
					t.Fatalf("%s: candidate %+v is not a serial window argmax", tag, c)
				}
			}
			if first == nil {
				first = res
				continue
			}
			if res.Location != first.Location || res.Peak != first.Peak {
				t.Fatalf("%s: location %+v peak %v, w1 %+v peak %v", tag, res.Location, res.Peak, first.Location, first.Peak)
			}
			for i := range res.Candidates {
				if res.Candidates[i] != first.Candidates[i] {
					t.Fatalf("%s: candidate %d %+v, w1 %+v", tag, i, res.Candidates[i], first.Candidates[i])
				}
			}
		}
	}
}

// countdownCtx reports cancellation from its n-th Err call on: a ctx
// that is live when a solve starts and cancelled partway through it.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRefineCancelledMidway: a ctx cancelled after the refinement's
// first rows abandons it with the refinement error, at every worker
// count, and a cancelled Snapshot is not memoized — the next one runs
// the refinement again and returns the uncancelled bits.
func TestRefineCancelledMidway(t *testing.T) {
	meas, cfg, hm, peaks := sharedEdgeCase()
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		ctx := &countdownCtx{Context: context.Background()}
		ctx.n.Store(5)
		_, err := refineAndPick(ctx, meas, trajOf(meas), cfg, hm, peaks)
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "search abandoned during refinement") {
			t.Fatalf("w%d: cancelled refinement returned %v", workers, err)
		}
	}

	sc := streamScenarios()[1]
	s, err := NewStreamSolver(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AddBatch(context.Background(), sc.meas)
	ctx := &countdownCtx{Context: context.Background()}
	ctx.n.Store(3)
	if _, err := s.Snapshot(ctx); !errors.Is(err, context.Canceled) ||
		!strings.Contains(err.Error(), "search abandoned during refinement") {
		t.Fatalf("cancelled snapshot returned %v", err)
	}
	want, err := LocalizeCtx(context.Background(), sc.meas, trajOf(sc.meas), sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, stripes := tracedSnapshot(t, s)
	if stripes == 0 {
		t.Fatal("snapshot after a cancelled one recorded no loc.stripe: the cancellation was memoized")
	}
	requireSameResult(t, "after cancelled snapshot", want, got.Result)
}

// tracedSnapshot runs one Snapshot under a fresh recorder and returns
// its result plus how many loc.stripe spans it recorded.
func tracedSnapshot(t *testing.T, s *StreamSolver) (*RobustResult, int) {
	t.Helper()
	rec := obs.NewRecorder(0)
	res, err := s.Snapshot(obs.WithRecorder(context.Background(), rec))
	if err != nil {
		t.Fatal(err)
	}
	stripes := 0
	for _, r := range rec.Snapshot() {
		if r.Name == "loc.stripe" {
			stripes++
		}
	}
	return res, stripes
}

// TestSnapshotMemo: a second Snapshot at an unchanged capture count
// returns the first one's result without striping anything; AddBatch and
// Restore each invalidate it, so the next Snapshot solves the state the
// solver then holds.
func TestSnapshotMemo(t *testing.T) {
	sc := streamScenarios()[1]
	s, err := NewStreamSolver(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AddBatch(context.Background(), sc.meas[:20])
	first, stripes := tracedSnapshot(t, s)
	if stripes == 0 {
		t.Fatal("first snapshot recorded no loc.stripe span")
	}
	again, stripes := tracedSnapshot(t, s)
	if stripes != 0 {
		t.Fatalf("repeat snapshot at an unchanged total recorded %d loc.stripe spans", stripes)
	}
	if again != first {
		t.Fatal("repeat snapshot at an unchanged total did not return the memoized result")
	}

	// AddBatch moves total past the memo.
	s.AddBatch(context.Background(), sc.meas[20:])
	full, stripes := tracedSnapshot(t, s)
	if stripes == 0 || full.Total != len(sc.meas) {
		t.Fatalf("snapshot after AddBatch: %d stripes, total %d", stripes, full.Total)
	}
	want, err := LocalizeCtx(context.Background(), sc.meas, trajOf(sc.meas), sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "after AddBatch", want, full.Result)

	// Restore to a different grid at the same total clears the memo.
	other := streamScenarios()[0].meas[:len(sc.meas)]
	o, err := NewStreamSolver(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	o.AddBatch(context.Background(), other)
	if err := s.Restore(append([]complex128(nil), o.sum...), other); err != nil {
		t.Fatal(err)
	}
	restored, stripes := tracedSnapshot(t, s)
	if stripes == 0 || restored == full {
		t.Fatal("snapshot after Restore at the same total returned the memo")
	}
	wantOther, err := LocalizeCtx(context.Background(), other, trajOf(other), sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "after Restore", wantOther, restored.Result)
}

// TestSnapshotMemoConcurrent races producers against snapshot readers
// (run it under -race): however the memo interleaves with the folds, the
// last Snapshot reports every capture, and a repeat of it is memoized.
func TestSnapshotMemoConcurrent(t *testing.T) {
	sc := streamScenarios()[0]
	s, err := NewStreamSolver(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for part := 0; part < 2; part++ {
		lo := part * len(sc.meas) / 2
		hi := (part + 1) * len(sc.meas) / 2
		wg.Add(1)
		go func(chunk []Measurement) {
			defer wg.Done()
			for i := range chunk {
				s.AddBatch(context.Background(), chunk[i:i+1])
			}
		}(sc.meas[lo:hi])
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if res, err := s.Snapshot(context.Background()); err == nil && res.Total < 3 {
					t.Errorf("snapshot solved %d captures", res.Total)
				}
			}
		}()
	}
	wg.Wait()
	final, err := s.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if final.Total != len(sc.meas) || final.Kept != len(sc.meas) {
		t.Fatalf("final snapshot solved %d/%d captures, want %d", final.Kept, final.Total, len(sc.meas))
	}
	if again, _ := s.Snapshot(context.Background()); again != final {
		t.Fatal("repeat of the final snapshot was not memoized")
	}
}
