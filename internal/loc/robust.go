package loc

import (
	"context"

	"rfly/internal/geom"
	"rfly/internal/obs"
)

// RobustResult is LocalizeRobustCtx's outcome: the solve over the surviving
// measurements plus an honest accounting of what was thrown away and how
// much the answer's confidence widened because of it.
type RobustResult struct {
	*Result
	// Total and Kept count the input and surviving measurements.
	Total int
	Kept  int
	// SigmaX/SigmaY are the Uncertainty estimates widened by the aperture
	// loss: rejecting samples shrinks the synthetic aperture, so the
	// reported confidence must not pretend the flight was clean.
	SigmaX float64
	SigmaY float64
}

// RejectUnlocked filters out measurements captured while the relay's lock
// was degraded, returning the survivors and the rejection count. The
// input slice is not modified.
func RejectUnlocked(meas []Measurement) ([]Measurement, int) {
	kept := make([]Measurement, 0, len(meas))
	for _, m := range meas {
		if m.Unlocked {
			continue
		}
		kept = append(kept, m)
	}
	return kept, len(meas) - len(kept)
}

// LocalizeRobustCtx is LocalizeCtx hardened for faulty flights: unlocked
// captures are rejected before the SAR integration (their phases carry no
// geometry), and the reported 1-σ uncertainty is widened by
// sqrt(total/kept) to reflect the thinner aperture. It errors when
// rejection leaves fewer than the three measurements a solve needs —
// a flight that was dark throughout should fail loudly, not return a
// noise peak with a confident σ.
func LocalizeRobustCtx(ctx context.Context, meas []Measurement, traj geom.Trajectory, cfg Config) (*RobustResult, error) {
	ctx, span := obs.StartSpan(ctx, "loc.robust")
	defer span.End()
	span.Int("total", int64(len(meas)))
	rr, err := solve(ctx, meas, traj, cfg, true)
	if err != nil {
		return nil, err
	}
	span.Int("kept", int64(rr.Kept))
	return rr, nil
}
