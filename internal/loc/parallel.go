package loc

import (
	"context"
	"runtime"
	"sync"

	"rfly/internal/obs"
)

// Parallel grid execution for the SAR search: the coarse fold, the fine
// refinement windows (refineAndPick) and the 3D scan. The heatmap is partitioned
// into contiguous row stripes, one per worker; every cell of P(x,y) is
// independent (a pure function of the measurements and the cell center),
// so workers write disjoint rows and the filled grid is bitwise identical
// to a serial scan regardless of scheduling. Argmax-style reductions keep
// determinism by reducing per row inside the worker (first-strictly-
// greater wins, matching serial iteration order) and merging the per-row
// results on the caller's goroutine in ascending row order.
//
// ctx is checked once per row inside each stripe, so a cancelled search
// stops within one row's work on every core.

// stripeRows runs fn(r) for every row in [0, rows) across min(workers,
// rows) goroutines (workers ≤ 0 means GOMAXPROCS). fn must be safe for
// concurrent calls on distinct rows. Returns ctx's error if the scan was
// abandoned; rows already dispatched finish, but no further rows start.
func stripeRows(ctx context.Context, rows, workers int, fn func(r int)) error {
	if rows <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		_, sp := obs.StartSpan(ctx, "loc.stripe")
		sp.Int("row_lo", 0).Int("row_hi", int64(rows))
		defer sp.End()
		for r := 0; r < rows; r++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(r)
		}
		return nil
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			// The stripe span ends before wg.Done, so every stripe is
			// fully enclosed by the solve span that is still open on the
			// caller's goroutine — the invariant the trace tests assert.
			_, sp := obs.StartSpan(ctx, "loc.stripe")
			sp.Int("row_lo", int64(lo)).Int("row_hi", int64(hi)).SetTrack(w + 1)
			defer sp.End()
			for r := lo; r < hi; r++ {
				if err := ctx.Err(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				fn(r)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	return firstErr
}

// gridCount returns the number of lattice points covering [0, span] at
// the given step: floor(span/step)+1 with an epsilon so exact multiples
// keep their final point. Grid coordinates are then origin + i·step —
// integer-indexed, never accumulated, so the lattice cannot drift.
func gridCount(span, step float64) int {
	if span < 0 {
		return 1
	}
	return int((span+1e-9*step)/step) + 1
}
