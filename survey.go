package rfly

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"rfly/internal/drone"
	"rfly/internal/epc"
	"rfly/internal/geom"
	"rfly/internal/loc"
	"rfly/internal/reader"
	"rfly/internal/rng"
)

// LocatedItem is one discovered, localized item in a survey report.
type LocatedItem struct {
	Item
	// Location is the SAR-estimated position.
	Location Point
	// ErrorM is the distance to the registered ground truth (simulation
	// convenience; unavailable in a real deployment).
	ErrorM float64
	// Reads is how many flight points contributed channel measurements.
	Reads int
	// MeanSNRdB is the average capture quality.
	MeanSNRdB float64
	// SigmaX/SigmaY are 1-σ uncertainty estimates from the localization
	// peak's curvature (meters) — what a deployment reports instead of
	// the ground-truth error it cannot know.
	SigmaX, SigmaY float64
}

// SurveyReport is the outcome of one relay flight.
type SurveyReport struct {
	// Located lists discovered items with position estimates, sorted by
	// name.
	Located []LocatedItem
	// DetectedOnly lists items that were read too few times to localize.
	DetectedOnly []Item
	// Unknown counts reads of EPCs missing from the database.
	Unknown int
	// FlightPoints is the number of trajectory samples flown.
	FlightPoints int
}

// SurveyOptions tunes a survey.
type SurveyOptions struct {
	// MinReads is the minimum number of captures required to localize a
	// tag (default 8).
	MinReads int
	// SearchRegion bounds the localization search; nil derives a region
	// from the trajectory (which cannot disambiguate the mirror side of a
	// straight flight line — prefer setting it).
	SearchRegion *Region
	// RoundsPerPoint is how many inventory rounds run at each hover point
	// (default 2: tags that collide in a round stay silent until the next
	// one, per the Gen2 slot-counter wrap).
	RoundsPerPoint int
}

// Region is an axis-aligned search rectangle for localization.
type Region = loc.Region

// Survey flies the platform along plan, inventories tags through the
// relay at every trajectory point, and localizes every item read at
// enough points. It is the warehouse "cycle count" workflow of §1.
func (s *System) Survey(plan Trajectory, opts SurveyOptions) (*SurveyReport, error) {
	if s.opts.NoRelay {
		return nil, fmt.Errorf("rfly: survey requires a relay (Options.NoRelay is set)")
	}
	if plan.Len() == 0 {
		return nil, fmt.Errorf("rfly: empty flight plan")
	}
	if opts.MinReads <= 0 {
		opts.MinReads = 8
	}
	if opts.RoundsPerPoint <= 0 {
		opts.RoundsPerPoint = 2
	}

	// FlyCtx fails only when its ctx ends, which a background ctx never does.
	flight, _ := s.opts.Platform.FlyCtx(context.Background(), plan, drone.DefaultOptiTrack(),
		rng.New(s.opts.Seed).Split("survey-flight"))

	type capture struct {
		pos geom.Point
		h   complex128
		snr float64
	}
	perTag := map[string][]capture{}
	var embedded []capture
	unknown := 0

	qalg := epc.NewQAlgorithm(3, 0.3)
	embEPC := s.dep.EmbeddedTag.EPC.String()
	for i, truePos := range flight.True {
		s.dep.MoveRelay(truePos)
		measured := flight.Measured[i]
		var embHere *capture
		tagsHere := map[string]capture{}
		for r := 0; r < opts.RoundsPerPoint; r++ {
			stats := s.dep.Reader.RunInventoryRound(s.dep, epc.S0, epc.TargetA, qalg)
			for _, rd := range stats.Reads {
				key := rd.EPC.String()
				c := capture{pos: measured, h: rd.H, snr: rd.SNRdB}
				if key == embEPC {
					embHere = &c
					continue
				}
				if _, known := s.items[key]; !known {
					unknown++
					continue
				}
				tagsHere[key] = c
			}
		}
		// The rounds at one hover point form a session: tags read in round
		// 1 (including the strong embedded tag, which would otherwise
		// capture every collision) sit out the later rounds. Re-arm the
		// flags only when moving on, as the brown-out between points does.
		s.resetTags()
		// Only points where the reference tag was also captured can be
		// disentangled (Eq. 10 needs both channels).
		if embHere == nil {
			continue
		}
		embedded = append(embedded, *embHere)
		for key, c := range tagsHere {
			perTag[key] = append(perTag[key], capture{pos: c.pos, h: c.h / embHere.h, snr: c.snr})
		}
	}

	report := &SurveyReport{FlightPoints: plan.Len(), Unknown: unknown}
	traj := flight.MeasuredTrajectory()
	for key, caps := range perTag {
		item := s.items[key]
		if len(caps) < opts.MinReads {
			report.DetectedOnly = append(report.DetectedOnly, item)
			continue
		}
		meas := make([]loc.Measurement, len(caps))
		var snrSum float64
		for i, c := range caps {
			meas[i] = loc.Measurement{Pos: c.pos, H: c.h}
			snrSum += c.snr
		}
		cfg := loc.DefaultConfig(s.dep.Model.Freq)
		if opts.SearchRegion != nil {
			cfg.Region = opts.SearchRegion
		}
		res, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg)
		if err != nil {
			report.DetectedOnly = append(report.DetectedOnly, item)
			continue
		}
		sx, sy := loc.Uncertainty(meas, res, cfg)
		report.Located = append(report.Located, LocatedItem{
			Item:      item,
			Location:  res.Location,
			ErrorM:    res.Location.Dist2D(item.TruePos),
			Reads:     len(caps),
			MeanSNRdB: snrSum / float64(len(caps)),
			SigmaX:    sx,
			SigmaY:    sy,
		})
	}
	sort.Slice(report.Located, func(i, j int) bool {
		return report.Located[i].Name < report.Located[j].Name
	})
	sort.Slice(report.DetectedOnly, func(i, j int) bool {
		return report.DetectedOnly[i].Name < report.DetectedOnly[j].Name
	})
	return report, nil
}

// resetTags returns every tag (and the embedded reference) to the ready
// state with cleared inventory flags, modelling the session decay between
// hover points.
func (s *System) resetTags() {
	for _, t := range s.dep.Tags {
		t.ClearInventory()
	}
	if s.dep.EmbeddedTag != nil {
		s.dep.EmbeddedTag.ClearInventory()
	}
}

// ReadRate measures the fraction of successful reads of the item with the
// given EPC over n attempts at the current relay position — the Fig. 11
// metric exposed on the public API.
func (s *System) ReadRate(e EPC, n int) (float64, error) {
	item, ok := s.lookup(e)
	if !ok {
		return 0, fmt.Errorf("rfly: EPC %s not registered", e)
	}
	for _, t := range s.dep.Tags {
		if t.EPC.Equal(item.EPC) {
			return s.dep.ReadRate(t, n), nil
		}
	}
	return 0, fmt.Errorf("rfly: tag for %s missing from deployment", e)
}

// MoveRelay repositions the relay platform (e.g. to hover near a shelf
// before calling ReadRate).
func (s *System) MoveRelay(p Point) { s.dep.MoveRelay(p) }

// Medium exposes the deployment as a Gen2 medium for direct protocol
// experiments.
func (s *System) Medium() reader.Medium { return s.dep }

// String renders the survey report as a human-readable summary table.
func (r *SurveyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "survey: %d flight points, %d located, %d detected-only, %d unknown reads\n",
		r.FlightPoints, len(r.Located), len(r.DetectedOnly), r.Unknown)
	for _, li := range r.Located {
		fmt.Fprintf(&b, "  %-20s (%6.2f, %6.2f)  ±%.0f cm  %d reads  %.0f dB\n",
			li.Name, li.Location.X, li.Location.Y, 100*li.ErrorM, li.Reads, li.MeanSNRdB)
	}
	for _, it := range r.DetectedOnly {
		fmt.Fprintf(&b, "  %-20s detected, not localizable\n", it.Name)
	}
	return b.String()
}
