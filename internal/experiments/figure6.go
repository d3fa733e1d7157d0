package experiments

import (
	"context"
	"fmt"

	"rfly/internal/drone"
	"rfly/internal/epc"
	"rfly/internal/geom"
	"rfly/internal/loc"
	"rfly/internal/rng"
	"rfly/internal/sim"
	"rfly/internal/stats"
	"rfly/internal/world"
)

// Figure6Result is one localization heatmap experiment.
type Figure6Result struct {
	Name       string
	Heatmap    *stats.Heatmap
	TagPos     geom.Point
	Estimate   geom.Point
	ErrorM     float64
	Candidates []loc.Candidate
}

// Figure6 reproduces the two P(x,y) heatmaps of Fig. 6: (a) a clean
// line-of-sight flight where the single dominant peak lands within a few
// centimeters of the tag, and (b) a heavy-multipath scene with steel
// shelving, where ghost peaks appear farther from the trajectory and the
// §5.2 nearest-peak rule still recovers the true tag.
func Figure6(seed uint64) (los, multipath Figure6Result, err error) {
	los, err = figure6Trial("line-of-sight", world.OpenSpace(), seed)
	if err != nil {
		return los, multipath, err
	}
	// Strong multipath: a steel shelf row behind the tag. Its specular
	// image of the tag appears at y ≈ 4.1, inside the search region but
	// farther from the trajectory — the ghost the §5.2 rule must reject.
	shelves := &world.Scene{Name: "steel-aisle"}
	shelves.AddWall(geom.P2(-1, 3.0), geom.P2(4, 3.0), world.Steel)
	multipath, err = figure6Trial("strong-multipath", shelves, seed+1)
	return los, multipath, err
}

func figure6Trial(name string, scene *world.Scene, seed uint64) (Figure6Result, error) {
	res := Figure6Result{Name: name}
	d := sim.New(sim.Config{
		Scene:     scene,
		ReaderPos: geom.P(-8, 1, 1.2),
		UseRelay:  true,
		RelayPos:  geom.P(0, 0, 0.4),
	}, seed)
	res.TagPos = geom.P(1.6, 1.9, 0)
	tg := d.AddTag(epc.NewEPC96(0x6A, 0, 0, 0, 0, 0), res.TagPos)

	plan := geom.Line(geom.P(0, 0, 0.4), geom.P(3, 0, 0.4), 40)
	// FlyCtx fails only when its ctx ends, which a background ctx never does.
	flight, _ := drone.Create2().FlyCtx(context.Background(), plan, drone.DefaultOptiTrack(), rng.New(seed).Split("flight"))
	cap, err := d.CollectSARCtx(context.Background(), flight, tg, nil)
	if err != nil {
		return res, fmt.Errorf("figure6 %s: %w", name, err)
	}
	cfg := loc.DefaultConfig(d.Model.Freq)
	cfg.Region = &loc.Region{X0: -0.5, Y0: 0.2, X1: 3.5, Y1: 5.0}
	cfg.CoarseRes = 0.05 // fine heatmap for rendering
	out, err := loc.LocalizeCtx(context.Background(), cap.Disentangled, flight.MeasuredTrajectory(), cfg)
	if err != nil {
		return res, fmt.Errorf("figure6 %s: %w", name, err)
	}
	res.Heatmap = out.Heatmap
	res.Estimate = out.Location
	res.ErrorM = out.Location.Dist2D(res.TagPos)
	res.Candidates = out.Candidates
	return res, nil
}
