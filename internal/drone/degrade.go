package drone

import (
	"context"
	"fmt"
	"math"
	"time"
)

// Mission-level graceful degradation: what the coverage plan does when a
// battery sags mid-sortie. A sagged pack delivers only part of its rated
// airtime, so the sortie must abort early, the drone returns for an
// unscheduled swap, and the uncovered remainder of that sortie's path is
// replanned onto the following sorties. The mission still completes — it
// just costs more wall-clock time, and the plan says exactly how much.

// BatterySag describes one mid-mission battery fault.
type BatterySag struct {
	// Sortie is which battery charge sags (1-based, ≤ the plan's Sorties).
	Sortie int
	// FlightFrac is how far through its airtime the sortie is when the
	// sag hits (0–1).
	FlightFrac float64
	// CapacityFrac is the fraction of the REMAINING airtime the sagged
	// pack can still deliver (0 = dies on the spot, 1 = no fault).
	CapacityFrac float64
}

// Validate checks the sag against a plan.
func (s BatterySag) Validate(pl Plan) error {
	if s.Sortie < 1 || s.Sortie > pl.Sorties {
		return fmt.Errorf("drone: sag in sortie %d of a %d-sortie plan", s.Sortie, pl.Sorties)
	}
	if s.FlightFrac < 0 || s.FlightFrac > 1 {
		return fmt.Errorf("drone: sag flight fraction %g outside [0, 1]", s.FlightFrac)
	}
	if s.CapacityFrac < 0 || s.CapacityFrac > 1 {
		return fmt.Errorf("drone: sag capacity fraction %g outside [0, 1]", s.CapacityFrac)
	}
	return nil
}

// DegradedPlan is ExecuteWithSagCtx's outcome: the original plan plus the
// cost of every battery fault it absorbed.
type DegradedPlan struct {
	Plan
	// AbortedSorties counts sorties cut short by a sag.
	AbortedSorties int
	// ExtraSorties is how many additional battery charges the replanned
	// coverage consumed beyond the nominal plan.
	ExtraSorties int
	// LostAirtime is the airtime sagged packs failed to deliver — the
	// stretch of path their sorties left un-flown, which later sorties
	// had to absorb.
	LostAirtime time.Duration
	// Delay is the wall-clock cost versus the nominal plan.
	Delay time.Duration
}

// ExecuteWithSagCtx replays the coverage plan against a set of battery
// sags and returns the degraded outcome. The policy per sag:
//
//  1. Detect: the sagged pack's remaining capacity is re-estimated at the
//     moment of the sag (telemetry watching cell voltage).
//  2. Abort: the sortie flies only what the sagged pack can still safely
//     deliver (with a 10% reserve for the return leg), then lands.
//  3. Swap: an unscheduled battery swap is charged.
//  4. Replan: the un-flown remainder of that sortie's path is appended to
//     the mission and flown by later (healthy) sorties.
//
// Multiple sags targeting the same sortie collapse to the worst one.
// The mission never silently drops coverage: the returned plan's airtime
// covers the full original path length.
//
// ctx is checked once per replayed sortie: replanning a long mission
// against many sags walks an unbounded sortie sequence (each sag
// stretches the tail), and a supervisor that is itself on a clock must be
// able to abandon the replay rather than finish it late.
func (pl Plan) ExecuteWithSagCtx(ctx context.Context, e Endurance, sags ...BatterySag) (DegradedPlan, error) {
	out := DegradedPlan{Plan: pl}
	if pl.Sorties < 1 || e.FlightTime <= 0 {
		return out, fmt.Errorf("drone: plan has no sorties to degrade")
	}
	worst := map[int]BatterySag{}
	for _, s := range sags {
		if err := s.Validate(pl); err != nil {
			return out, err
		}
		if prev, ok := worst[s.Sortie]; !ok || s.CapacityFrac < prev.CapacityFrac {
			worst[s.Sortie] = s
		}
	}

	// Walk the sorties: each flies min(full pack, remaining path); a
	// sagged sortie covers less, leaving its shortfall in `remaining` for
	// later packs — that IS the replan. The path is always fully covered;
	// the cost shows up as extra sorties and their swap time.
	full := float64(e.FlightTime)
	remaining := float64(pl.FlightTime)
	sorties := 0
	const reserve = 0.10 // return-leg reserve a sagged pack must hold back

	for i := 1; remaining > 1e-9; i++ {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("drone: sag replay abandoned at sortie %d: %w", i, err)
		}
		sorties++
		planned := math.Min(full, remaining)
		s, sagged := worst[i]
		if !sagged {
			remaining -= planned
			continue
		}
		out.AbortedSorties++
		// Flown before the sag hit, plus what the sagged pack can still
		// deliver after holding the landing reserve.
		flownBefore := planned * s.FlightFrac
		usable := (planned - flownBefore) * s.CapacityFrac * (1 - reserve)
		covered := flownBefore + usable
		out.LostAirtime += time.Duration(planned - covered)
		remaining -= covered
	}

	out.Sorties = sorties
	out.ExtraSorties = sorties - pl.Sorties
	out.GroundTime = time.Duration(sorties-1) * e.SwapTime
	out.TotalTime = pl.FlightTime + out.GroundTime
	out.Delay = out.TotalTime - pl.TotalTime
	if out.TotalTime > 0 {
		out.CoverageRate = out.AreaM2 / out.TotalTime.Hours()
	}
	return out, nil
}
