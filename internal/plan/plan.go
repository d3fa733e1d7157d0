// Package plan is the relay trajectory/positioning optimizer: given a
// scene, a reader, and a tag population, it decides where the drone
// relay should hover and in what order, scoring candidate tours by
// energy per inventoried tag (the arXiv:2007.12284 objective) against
// the existing propagation link-budget and drone battery-sag models.
//
// Planners never roll dice: a plan is a pure function of its Scenario,
// proven by the cross-seed determinism tests. Scenario.Seed is recorded
// as provenance only — the runtime folds the emitted plan's name and
// hash into its config hash and checkpoints, so a resumed mission can
// prove it is flying the same plan it started with.
package plan

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"rfly/internal/drone"
	"rfly/internal/epc"
	"rfly/internal/geom"
	"rfly/internal/obs"
	"rfly/internal/sim"
	"rfly/internal/world"
)

// probeSeed fixes the nominal-hardware draw the coverage predictor uses:
// predictions describe a typical relay build, independent of whatever
// seed the mission itself will fly with.
const probeSeed = 0x51ab

// maxCandidates bounds the placement lattice a scenario may request.
const maxCandidates = 4096

// Constraints bound where the planner may put relay stations and what
// "covered" means. This is the fuzzed validation surface.
type Constraints struct {
	// [X0,X1]×[Y0,Y1] is the admissible hover region; AltitudeM the
	// hover height; SpacingM the candidate lattice pitch.
	X0, Y0, X1, Y1 float64
	AltitudeM      float64
	SpacingM       float64
	// MaxStations caps the tour length.
	MaxStations int
	// MinTagSNRdB is the decode margin a predicted link budget must
	// clear for a tag to count as covered from a station.
	MinTagSNRdB float64
	// TagReadHz converts a station's newly covered tags into hover dwell
	// time (tags inventoried per second of hovering).
	TagReadHz float64
}

// Validate rejects constraint sets the planner cannot interpret.
func (c Constraints) Validate() error {
	for _, v := range []float64{c.X0, c.Y0, c.X1, c.Y1, c.AltitudeM, c.SpacingM, c.MinTagSNRdB, c.TagReadHz} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("plan: constraints have non-finite field")
		}
	}
	if c.X1 <= c.X0 || c.Y1 <= c.Y0 {
		return fmt.Errorf("plan: empty hover region [%g,%g]×[%g,%g]", c.X0, c.X1, c.Y0, c.Y1)
	}
	if c.SpacingM < 0.1 {
		return fmt.Errorf("plan: lattice spacing %g m too fine (want ≥ 0.1)", c.SpacingM)
	}
	if c.AltitudeM < 0 || c.AltitudeM > 150 {
		return fmt.Errorf("plan: altitude %g m outside [0, 150]", c.AltitudeM)
	}
	if c.MaxStations < 1 || c.MaxStations > 256 {
		return fmt.Errorf("plan: max stations %d outside [1, 256]", c.MaxStations)
	}
	if c.MinTagSNRdB < -30 || c.MinTagSNRdB > 60 {
		return fmt.Errorf("plan: min tag SNR %g dB outside [-30, 60]", c.MinTagSNRdB)
	}
	if c.TagReadHz <= 0 || c.TagReadHz > 1e4 {
		return fmt.Errorf("plan: tag read rate %g Hz outside (0, 1e4]", c.TagReadHz)
	}
	if n := c.latticeSize(); n > maxCandidates {
		return fmt.Errorf("plan: lattice of %d candidates exceeds %d (coarsen SpacingM)", n, maxCandidates)
	}
	return nil
}

func (c Constraints) latticeSize() int {
	nx := int(math.Floor((c.X1-c.X0)/c.SpacingM)) + 1
	ny := int(math.Floor((c.Y1-c.Y0)/c.SpacingM)) + 1
	return nx * ny
}

// Candidates returns the row-major placement lattice over the region.
func (c Constraints) Candidates() []geom.Point {
	nx := int(math.Floor((c.X1-c.X0)/c.SpacingM)) + 1
	ny := int(math.Floor((c.Y1-c.Y0)/c.SpacingM)) + 1
	out := make([]geom.Point, 0, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			out = append(out, geom.P(c.X0+float64(ix)*c.SpacingM,
				c.Y0+float64(iy)*c.SpacingM, c.AltitudeM))
		}
	}
	return out
}

// Scenario is everything a planner consumes: the world, the reader, the
// tag population, the platform's flight economics, and the constraints.
type Scenario struct {
	Scene     *world.Scene
	FreqHz    float64 // 0 → 915 MHz
	ReaderPos geom.Point
	// Tags are the positions to inventory.
	Tags []geom.Point
	// Start is the launch/landing pad the tour departs from.
	Start geom.Point

	// Platform/Endurance/Power default to the Bebop 2 numbers.
	Platform  drone.Platform
	Endurance drone.Endurance
	Power     drone.PowerModel
	// Sags replays known battery degradation through the tour's sortie
	// schedule (drone.ExecuteWithSagCtx) so a tired fleet plans honestly.
	Sags []drone.BatterySag

	Constraints Constraints

	// Seed is provenance only: planners are deterministic in the inputs
	// above and never consume it.
	Seed uint64
}

func (s Scenario) withDefaults() Scenario {
	if s.FreqHz == 0 {
		s.FreqHz = 915e6
	}
	if s.Platform.Name == "" {
		s.Platform = drone.Bebop2()
	}
	if s.Endurance.FlightTime <= 0 {
		s.Endurance = drone.Bebop2Endurance()
	}
	if s.Power.HoverW <= 0 {
		s.Power = drone.Bebop2Power()
	}
	return s
}

// Validate rejects scenarios the planners cannot solve.
func (s Scenario) Validate() error {
	if s.Scene == nil {
		return fmt.Errorf("plan: scenario needs a scene")
	}
	if len(s.Tags) == 0 {
		return fmt.Errorf("plan: scenario has no tags to inventory")
	}
	for _, p := range s.Tags {
		for _, v := range []float64{p.X, p.Y, p.Z} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("plan: tag at non-finite position")
			}
		}
	}
	return s.Constraints.Validate()
}

// Station is one stop of the tour: hover at Pos for DwellS seconds to
// inventory the NewTags tags this stop covers first.
type Station struct {
	Pos     geom.Point
	NewTags int
	DwellS  float64
}

// Result is a solved plan plus its energy accounting.
type Result struct {
	Planner  string
	Stations []Station
	// PathLengthM is Start → station₁ → … → stationₖ.
	PathLengthM float64
	// FlightS is airtime: transit at the platform's speed plus hover
	// dwell; Sorties the battery charges that airtime consumes.
	FlightS float64
	Sorties int
	// LostAirtimeS is what battery sag added (drone.ExecuteWithSagCtx).
	LostAirtimeS float64
	// EnergyJ is the electrical cost of (FlightS + LostAirtimeS) at the
	// platform's power draw; EnergyPerTagJ divides by Covered.
	EnergyJ       float64
	EnergyPerTagJ float64
	// Covered of Total tags are predicted inventoried by the tour.
	Covered, Total int
	// Seed echoes Scenario.Seed (provenance only).
	Seed uint64
}

// StationPoints returns just the tour's hover positions, in order — the
// slice the runtime carries as Config.PlanStations.
func (r Result) StationPoints() []geom.Point {
	out := make([]geom.Point, len(r.Stations))
	for i, st := range r.Stations {
		out[i] = st.Pos
	}
	return out
}

// Hash fingerprints the plan for provenance: any change to the planner,
// the tour, or its energy accounting changes the hash.
func (r Result) Hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%g|%g|%g", r.Planner, len(r.Stations),
		r.Covered, r.Total, r.PathLengthM, r.FlightS, r.EnergyJ)
	for _, st := range r.Stations {
		fmt.Fprintf(h, "|%g,%g,%g:%d:%g", st.Pos.X, st.Pos.Y, st.Pos.Z, st.NewTags, st.DwellS)
	}
	return h.Sum64()
}

// String summarizes the plan.
func (r Result) String() string {
	return fmt.Sprintf("plan[%s: %d stations, %d/%d tags, %.0f m, %.0f J, %.2f J/tag]",
		r.Planner, len(r.Stations), r.Covered, r.Total, r.PathLengthM, r.EnergyJ, r.EnergyPerTagJ)
}

// Planner is the common optimizer interface. Implementations must be
// deterministic in the Scenario.
type Planner interface {
	Name() string
	Plan(ctx context.Context, s Scenario) (Result, error)
}

// Planners returns every registered implementation.
func Planners() []Planner { return []Planner{Greedy{}, CoverageAware{}} }

// ByName resolves a planner from its Name (with "coverage" accepted as
// shorthand for coverage-aware).
func ByName(name string) (Planner, error) {
	for _, p := range Planners() {
		if p.Name() == name {
			return p, nil
		}
	}
	if name == "coverage" {
		return CoverageAware{}, nil
	}
	return nil, fmt.Errorf("plan: unknown planner %q (have greedy, coverage-aware)", name)
}

// coverage is the predicted link-budget matrix: which tags each lattice
// candidate would serve.
type coverage struct {
	cands []geom.Point
	// covers[ci] lists tag indices candidate ci serves; tagCovers[ti]
	// lists candidates serving tag ti.
	covers    [][]int
	tagCovers [][]int
}

// buildCoverage predicts per-candidate coverage with the sim's own link
// budget: a nominal relay (fixed probe seed, no shadowing — shadowing is
// a per-trial draw, not something a planner can know in advance) is
// moved across the lattice and every tag's predicted budget is
// thresholded at the constraint's SNR margin.
func buildCoverage(s Scenario) *coverage {
	cov := &coverage{cands: s.Constraints.Candidates()}
	cov.covers = make([][]int, len(cov.cands))
	cov.tagCovers = make([][]int, len(s.Tags))
	d := sim.New(sim.Config{
		Scene:              s.Scene,
		Freq:               s.FreqHz,
		ReaderPos:          s.ReaderPos,
		UseRelay:           true,
		RelayPos:           cov.cands[0],
		GroundReflectivity: 0.3,
	}, probeSeed)
	for i, p := range s.Tags {
		d.AddTag(epc.NewEPC96(0x9A11, uint16(i>>16), uint16(i), 0, 0, 0), p)
	}
	for ci, c := range cov.cands {
		d.MoveRelay(c)
		for ti, t := range d.Tags {
			b := d.LinkBudget(t)
			if b.Powered && b.RelayStable && b.SNRdB >= s.Constraints.MinTagSNRdB {
				cov.covers[ci] = append(cov.covers[ci], ti)
				cov.tagCovers[ti] = append(cov.tagCovers[ti], ci)
			}
		}
	}
	return cov
}

// solve is the shared pipeline both planners run under the plan.solve
// span: validate, predict coverage, let the algorithm pick the tour,
// then price it.
func solve(ctx context.Context, name string, s Scenario,
	algo func(s Scenario, cov *coverage) []Station) (Result, error) {
	_, span := obs.StartSpan(ctx, "plan.solve")
	defer span.End()
	span.Str("planner", name)
	if err := s.Validate(); err != nil {
		span.Str("error", err.Error())
		return Result{}, err
	}
	s = s.withDefaults()
	cov := buildCoverage(s)
	stations := algo(s, cov)
	res, err := price(ctx, name, s, stations)
	if err != nil {
		span.Str("error", err.Error())
		return Result{}, err
	}
	span.Int("stations", int64(len(res.Stations)))
	span.Int("covered", int64(res.Covered))
	span.Int("tags", int64(res.Total))
	span.Float("energy_j", res.EnergyJ)
	span.Float("energy_per_tag_j", res.EnergyPerTagJ)
	return res, nil
}

// price turns a tour into its energy accounting: transit + dwell airtime
// across the battery schedule (with any known sag replayed through
// drone.ExecuteWithSagCtx), times the platform's power draw.
func price(ctx context.Context, name string, s Scenario, stations []Station) (Result, error) {
	res := Result{Planner: name, Stations: stations, Total: len(s.Tags), Seed: s.Seed}
	pts := []geom.Point{s.Start}
	for _, st := range stations {
		res.Covered += st.NewTags
		pts = append(pts, st.Pos)
	}
	var dwellS float64
	for _, st := range stations {
		dwellS += st.DwellS
	}
	for i := 1; i < len(pts); i++ {
		res.PathLengthM += pts[i-1].Dist(pts[i])
	}
	res.FlightS = res.PathLengthM/s.Platform.SpeedMS + dwellS
	pl := drone.Plan{
		Trajectory:  geom.Trajectory{Points: pts},
		PathLengthM: res.PathLengthM,
		FlightTime:  time.Duration(res.FlightS * float64(time.Second)),
		AreaM2:      (s.Constraints.X1 - s.Constraints.X0) * (s.Constraints.Y1 - s.Constraints.Y0),
	}
	pl.Sorties = int(math.Ceil(res.FlightS / s.Endurance.FlightTime.Seconds()))
	if pl.Sorties < 1 {
		pl.Sorties = 1
	}
	pl.GroundTime = time.Duration(pl.Sorties-1) * s.Endurance.SwapTime
	pl.TotalTime = pl.FlightTime + pl.GroundTime
	deg, err := pl.ExecuteWithSagCtx(ctx, s.Endurance, s.Sags...)
	if err != nil {
		return Result{}, fmt.Errorf("plan: battery-sag replay: %w", err)
	}
	res.Sorties = pl.Sorties + deg.ExtraSorties
	res.LostAirtimeS = deg.LostAirtime.Seconds()
	res.EnergyJ = s.Power.EnergyJ(res.FlightS + res.LostAirtimeS)
	if res.Covered > 0 {
		res.EnergyPerTagJ = res.EnergyJ / float64(res.Covered)
	} else {
		res.EnergyPerTagJ = math.Inf(1)
	}
	return res, nil
}
