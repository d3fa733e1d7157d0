package experiments

import (
	"context"
	"math"

	"rfly/internal/drone"
	"rfly/internal/epc"
	"rfly/internal/fault"
	"rfly/internal/geom"
	"rfly/internal/loc"
	"rfly/internal/reader"
	"rfly/internal/relay"
	"rfly/internal/rng"
	"rfly/internal/sim"
	"rfly/internal/tag"
	"rfly/internal/world"
)

// FaultMatrix quantifies what each fault class costs and what the
// recovery machinery buys back. For every class it runs three arms over
// the same corridor geometry and timeline:
//
//	no-fault  — the clean baseline (should match Figure 11 at the same
//	            distance within noise);
//	nominal   — the fault injected, recovery disabled: no watchdog, no
//	            retry, no reprogramming, no station-keeping, no swap;
//	recovery  — the fault injected with the full recovery stack: the
//	            relay.Watchdog re-sweeps lost locks, reads retry with
//	            backoff, instability triggers gain reprogramming, gusts
//	            are station-kept out, and a sagged battery is swapped.
//
// A localization column runs the same comparison through the SAR
// pipeline: plain Localize (integrates whatever the flight captured)
// versus LocalizeRobust (rejects unlocked captures, widens σ).

// FaultMatrixConfig exposes the matrix's tunables.
type FaultMatrixConfig struct {
	// Ticks is the read-rate timeline length; each tick is one read
	// attempt (plus retries, in the recovery arm).
	Ticks int
	// FaultStart/FaultDuration position each class's event window.
	FaultStart, FaultDuration int
	// Trials is the number of independent timelines per class per arm.
	Trials int
	// ReaderTagDist is the corridor reader→tag distance (meters); the
	// relay hovers RelayTagDist short of the tag, as in Figure 11.
	ReaderTagDist float64
	RelayTagDist  float64
	ShadowSigmaDB float64
	// SwapDelayTicks is how long the mission takes to land, swap the
	// sagged battery, and relaunch (the recovery arm's battery story).
	SwapDelayTicks int
	// StationKeepStepM is how far the recovery arm's controller pulls the
	// relay back toward station per tick after a gust.
	StationKeepStepM float64
	// Retry is the recovery arm's MAC retry policy.
	Retry reader.RetryPolicy
	// LocPoints/LocTrials size the localization comparison; the fault
	// window LocFaultStart+LocFaultDuration is in flight points.
	LocPoints, LocTrials            int
	LocFaultStart, LocFaultDuration int
}

// DefaultFaultMatrixConfig sizes the matrix so every class shows its
// signature without taking minutes: 40-tick timelines, the fault hitting
// at tick 8 for 16 ticks, at the 30 m point of the Figure 11 corridor.
func DefaultFaultMatrixConfig() FaultMatrixConfig {
	return FaultMatrixConfig{
		Ticks: 40, FaultStart: 8, FaultDuration: 16,
		Trials:        25,
		ReaderTagDist: 30, RelayTagDist: 1.8,
		ShadowSigmaDB:    3,
		SwapDelayTicks:   6,
		StationKeepStepM: 2,
		Retry:            reader.DefaultRetryPolicy(),
		LocPoints:        45, LocTrials: 12,
		LocFaultStart: 12, LocFaultDuration: 18,
	}
}

// FaultRow is one class's outcomes across the three arms.
type FaultRow struct {
	Class fault.Class
	Event fault.Event
	// Read rates in percent.
	NoFaultPct, NominalPct, RecoveryPct float64
	// Mean 2-D localization error (meters) for the naive and robust
	// localizers under the fault; NaN when no trial produced a solve.
	NaiveLocErrM, RobustLocErrM float64
	// Solve failures out of LocTrials for each localizer.
	NaiveLocFails, RobustLocFails int
	// Relocks counts watchdog re-acquisitions across the recovery arm's
	// trials (diagnostic: which classes exercise the re-sweep path).
	Relocks int
}

// FaultMatrixResult is the full matrix.
type FaultMatrixResult struct {
	Rows []FaultRow
	// CleanPct is the pooled no-fault read rate (percent) — the Figure 11
	// anchor all classes share.
	CleanPct float64
}

// matrixEvent chooses each class's injected event. Severities are set to
// the level where the class visibly bites at 30 m: full-scale LO drift
// (past the LPF cutoff — relay dark until re-locked), a 40 dB VGA droop
// (marginal uplink SNR, exactly where MAC retry pays), a 20 dB isolation
// collapse (breaks the 10 dB stability margin, forcing a gain
// reprogram), a battery that stays down until swapped, a full-scale
// lateral gust (blows the drone out of the corridor, behind its wall), a
// 500 kHz regulatory hop, and a −36 dBm co-channel burst by the reader
// (marginal SINR, where retry pays again).
func matrixEvent(c fault.Class, start, dur int) fault.Event {
	ev := fault.Event{Class: c, Start: start, Duration: dur, Severity: 1}
	switch c {
	case fault.GainDroop:
		ev.Param = 40
	case fault.IsolationCollapse:
		ev.Severity = 0.8
	case fault.WindGust:
		ev.Param = math.Pi / 2
	case fault.BurstInterference:
		ev.Param = -36
	}
	return ev
}

// FaultMatrix runs the whole matrix. Deterministic for a fixed seed:
// every draw comes from the seeded simulation streams.
func FaultMatrix(cfg FaultMatrixConfig, seed uint64) FaultMatrixResult {
	var res FaultMatrixResult
	var cleanSum float64
	for _, c := range fault.CoreClasses() {
		ev := matrixEvent(c, cfg.FaultStart, cfg.FaultDuration)
		row := FaultRow{Class: c, Event: ev}
		base := seed ^ (uint64(c+1) << 24)

		var nofault, nominal, recovery float64
		for trial := 0; trial < cfg.Trials; trial++ {
			s := base + uint64(trial)*104729
			nofault += faultReadRate(cfg, ev, armNoFault, s, nil)
			nominal += faultReadRate(cfg, ev, armNominal, s, nil)
			recovery += faultReadRate(cfg, ev, armRecovery, s, &row.Relocks)
		}
		n := float64(cfg.Trials)
		row.NoFaultPct = 100 * nofault / n
		row.NominalPct = 100 * nominal / n
		row.RecoveryPct = 100 * recovery / n
		cleanSum += row.NoFaultPct

		row.NaiveLocErrM, row.RobustLocErrM, row.NaiveLocFails, row.RobustLocFails =
			faultLocErrors(cfg, c, base^0x10c)

		res.Rows = append(res.Rows, row)
	}
	res.CleanPct = cleanSum / float64(len(res.Rows))
	return res
}

type faultArm int

const (
	armNoFault faultArm = iota
	armNominal
	armRecovery
)

// faultCorridor builds the Figure 11 corridor deployment at the matrix
// distance and returns it with its tag.
func faultCorridor(cfg FaultMatrixConfig, seed uint64) (*sim.Deployment, *tag.Tag) {
	const corridorW = 3.0
	mid := corridorW / 2
	scene := world.Corridor(cfg.ReaderTagDist+10, corridorW)
	relayPos := geom.P(cfg.ReaderTagDist-cfg.RelayTagDist, mid, 1.2)
	d := sim.New(sim.Config{
		Scene:         scene,
		ReaderPos:     geom.P(0.5, mid, 1.2),
		UseRelay:      true,
		RelayPos:      relayPos,
		ShadowSigmaDB: cfg.ShadowSigmaDB,
	}, seed)
	tg := d.AddTag(epc.NewEPC96(uint16(seed), 0xFA, 0, 0, 0, 0),
		geom.P(cfg.ReaderTagDist, mid, 1.0))
	return d, tg
}

// faultReadRate runs one timeline of one arm and returns the read-success
// fraction over its ticks.
func faultReadRate(cfg FaultMatrixConfig, ev fault.Event, arm faultArm, seed uint64, relocks *int) float64 {
	d, tg := faultCorridor(cfg, seed)

	var inj *fault.Injector
	if arm != armNoFault {
		inj, _ = fault.NewInjector(fault.Schedule{Events: []fault.Event{ev}}, d)
	}
	var wd *relay.Watchdog
	if arm == armRecovery {
		wd, _ = relay.NewWatchdog(d.Relay, relay.WatchdogConfig{})
	}

	ctx := context.Background() // never ends, so the Ctx calls below cannot fail
	ok := 0
	sagTicks := -1
	for tick := 0; tick < cfg.Ticks; tick++ {
		if inj != nil {
			inj.Step()
		}
		if arm == armRecovery {
			// Watchdog first: a lost or stale or drifted lock re-sweeps.
			wd.TickCtx(ctx, d)
			// Mission-level battery swap after the turnaround delay.
			if !d.RelayPowered() {
				sagTicks++
				if sagTicks >= cfg.SwapDelayTicks {
					d.SetRelayPowered(true)
					sagTicks = -1
				}
			}
			// Controller pulls the airframe back on station.
			d.StationKeep(cfg.StationKeepStepM)
			// An unstable gain plan is re-derived against the degraded
			// isolation (§6.1 re-run).
			if !d.RelayPlanStable() {
				d.ReprogramGains()
			}
		}
		var read bool
		if arm == armRecovery {
			read, _ = d.ReadAttemptRetryCtx(ctx, tg, cfg.Retry, nil)
		} else {
			read = d.ReadAttempt(tg)
		}
		if read {
			ok++
		}
	}
	if relocks != nil && wd != nil {
		*relocks += wd.Stats().Relocks
	}
	return float64(ok) / float64(cfg.Ticks)
}

// locEvent is the per-class event the localization comparison injects.
// Classes that kill the link outright would just thin the aperture for
// both localizers equally; the interesting degradation for SAR is a
// sub-outage LO drift — captures still decode, but their phases are
// noise. SynthDrift therefore uses a drift inside the LPF passband here.
func locEvent(c fault.Class, start, dur int) fault.Event {
	ev := matrixEvent(c, start, dur)
	if c == fault.SynthDrift {
		ev.Param = 60e3 // inside the 150 kHz cutoff: alive but scrambled
	}
	return ev
}

// faultLocErrors flies the §7.3 line flight with the class's fault hitting
// mid-aperture and compares the naive and robust localizers. Returns mean
// 2-D errors (NaN when every trial failed) and per-localizer solve-failure
// counts.
func faultLocErrors(cfg FaultMatrixConfig, c fault.Class, seed uint64) (naiveErr, robustErr float64, naiveFails, robustFails int) {
	tagPos := geom.P(1.5, 2.0, 0)
	ev := locEvent(c, cfg.LocFaultStart, cfg.LocFaultDuration)

	var naiveSum, robustSum float64
	var naiveN, robustN int
	for trial := 0; trial < cfg.LocTrials; trial++ {
		s := seed + uint64(trial)*7919
		d := sim.New(sim.Config{
			Scene:     world.OpenSpace(),
			ReaderPos: geom.P2(-12, 1),
			UseRelay:  true,
			RelayPos:  geom.P(0, 0, 0.8),
		}, s)
		tg := d.AddTag(epc.NewEPC96(uint16(s), 0xFB, 0, 0, 0, 0), tagPos)

		inj, _ := fault.NewInjector(fault.Schedule{Events: []fault.Event{ev}}, d)
		wd, _ := relay.NewWatchdog(d.Relay, relay.WatchdogConfig{})

		plan := geom.Line(geom.P(0, 0, 0.8), geom.P(3, 0, 0.8), cfg.LocPoints)
		src := rng.New(s).Split("flight")
		// FlyCtx fails only when its ctx ends, which a background ctx never does.
		flight, _ := drone.Bebop2().FlyCtx(context.Background(), plan, drone.DefaultOptiTrack(), src)
		cap, err := d.CollectSARCtx(context.Background(), flight, tg, func(int) {
			inj.Step()
			wd.TickCtx(context.Background(), d)
			if !d.RelayPowered() {
				d.SetRelayPowered(true) // instant swap: keep the flight alive
			}
			d.StationKeep(cfg.StationKeepStepM)
			if !d.RelayPlanStable() {
				d.ReprogramGains()
			}
		})
		if err != nil {
			naiveFails++
			robustFails++
			continue
		}

		traj := flight.MeasuredTrajectory()
		x0, y0, x1, _ := traj.Bounds()
		lcfg := loc.DefaultConfig(d.Model.Freq)
		lcfg.Region = &loc.Region{X0: x0 - 3, Y0: y0 + 0.2, X1: x1 + 3, Y1: y0 + 6}
		lcfg.PeakThreshold = 0.82

		if res, err := loc.LocalizeCtx(context.Background(), cap.Disentangled, traj, lcfg); err != nil {
			naiveFails++
		} else {
			naiveSum += res.Location.Dist2D(tagPos)
			naiveN++
		}
		if res, err := loc.LocalizeRobustCtx(context.Background(), cap.Disentangled, traj, lcfg); err != nil {
			robustFails++
		} else {
			robustSum += res.Location.Dist2D(tagPos)
			robustN++
		}
	}
	naiveErr, robustErr = math.NaN(), math.NaN()
	if naiveN > 0 {
		naiveErr = naiveSum / float64(naiveN)
	}
	if robustN > 0 {
		robustErr = robustSum / float64(robustN)
	}
	return naiveErr, robustErr, naiveFails, robustFails
}
