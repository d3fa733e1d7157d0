// Package drone models the mobile platforms RFly's relay rides on — the
// Parrot Bebop 2 drone and the iRobot Create 2 ground robot used in the
// paper's microbenchmarks — together with the OptiTrack ground-truth
// system (§6.2, §6.3).
//
// For localization what matters is the sampled trajectory with realistic
// pose uncertainty: the drone wobbles around its planned path (True
// positions) and OptiTrack measures those positions to sub-centimeter
// accuracy (Measured positions). The SAR localizer consumes the Measured
// trajectory, exactly as the paper does.
package drone

import (
	"context"
	"fmt"

	"rfly/internal/geom"
	"rfly/internal/rng"
)

// Platform describes a mobile carrier for the relay.
type Platform struct {
	Name        string
	MaxPayloadG float64 // maximum payload, grams
	SpeedMS     float64 // typical survey speed, m/s
	// PosJitterM is the RMS deviation of the platform from its planned
	// path per axis (flight controller wander for the drone, wheel
	// slip for the robot).
	PosJitterM float64
}

// Bebop2 returns the Parrot Bebop 2 used in the paper: 32×38 cm, 200 g
// payload, safe to fly indoors.
func Bebop2() Platform {
	return Platform{Name: "Parrot Bebop 2", MaxPayloadG: 200, SpeedMS: 0.5, PosJitterM: 0.02}
}

// Create2 returns the iRobot Create 2 ground robot used for the
// controlled aperture microbenchmarks (§7.3).
func Create2() Platform {
	return Platform{Name: "iRobot Create 2", MaxPayloadG: 9000, SpeedMS: 0.3, PosJitterM: 0.004}
}

// CanCarry reports whether a payload of the given mass fits the platform.
// RFly's relay weighs 35 g; a standalone UHF reader weighs ≥500 g (§3),
// which is why the relay architecture is what makes indoor drones viable.
func (p Platform) CanCarry(grams float64) bool { return grams <= p.MaxPayloadG }

// RelayMassG is the paper's relay PCB mass.
const RelayMassG = 35

// ReaderMassG is the lightest standalone UHF reader's mass (§3).
const ReaderMassG = 500

// OptiTrack models the infrared motion-capture ground truth: sub-cm
// accuracy within its cameras' field of view.
type OptiTrack struct {
	SigmaM float64 // per-axis measurement noise
	// FieldOfView optionally bounds where tracking works; nil = everywhere.
	FieldOfView func(geom.Point) bool
}

// DefaultOptiTrack returns the paper's setup: ~5 mm accuracy, full
// coverage of the experiment area.
func DefaultOptiTrack() OptiTrack { return OptiTrack{SigmaM: 0.005} }

// Measure returns the OptiTrack estimate of a true position, and whether
// the point was inside the tracked volume.
func (o OptiTrack) Measure(p geom.Point, src *rng.Source) (geom.Point, bool) {
	if o.FieldOfView != nil && !o.FieldOfView(p) {
		return geom.Point{}, false
	}
	return geom.Point{
		X: p.X + src.Gaussian(0, o.SigmaM),
		Y: p.Y + src.Gaussian(0, o.SigmaM),
		Z: p.Z + src.Gaussian(0, o.SigmaM),
	}, true
}

// Flight is a flown trajectory: the platform's true positions (plan +
// wander) and the OptiTrack measurements of them. Points the OptiTrack
// could not see are dropped from both slices, keeping them aligned.
type Flight struct {
	Plan     geom.Trajectory
	True     []geom.Point
	Measured []geom.Point
}

// FlyCtx executes a flight plan: each planned point is perturbed by the
// platform's positional jitter (the true position) and then measured by
// the OptiTrack. The flight is cut short between plan points when ctx
// expires, returning the points flown so far together with ctx's error.
// The truncated flight is still internally consistent (True and Measured
// stay paired), so a caller that chooses to use a partial aperture can —
// but it must do so knowingly, which is why the error is returned rather
// than swallowed.
func (p Platform) FlyCtx(ctx context.Context, plan geom.Trajectory, ot OptiTrack, src *rng.Source) (Flight, error) {
	f := Flight{Plan: plan}
	wander := src.Split("wander-" + p.Name)
	meas := src.Split("optitrack-" + p.Name)
	for _, pt := range plan.Points {
		if err := ctx.Err(); err != nil {
			return f, err
		}
		truth := geom.Point{
			X: pt.X + wander.Gaussian(0, p.PosJitterM),
			Y: pt.Y + wander.Gaussian(0, p.PosJitterM),
			Z: pt.Z + wander.Gaussian(0, p.PosJitterM),
		}
		m, ok := ot.Measure(truth, meas)
		if !ok {
			continue
		}
		f.True = append(f.True, truth)
		f.Measured = append(f.Measured, m)
	}
	return f, nil
}

// MeasuredTrajectory returns the OptiTrack-measured positions as a
// Trajectory for the localizer.
func (f Flight) MeasuredTrajectory() geom.Trajectory {
	return geom.Trajectory{Points: f.Measured}
}

// String summarizes the flight.
func (f Flight) String() string {
	return fmt.Sprintf("flight: %d planned, %d tracked points", f.Plan.Len(), len(f.Measured))
}
