package experiments

import (
	"context"
	"math"
	"math/cmplx"

	"rfly/internal/epc"
	"rfly/internal/geom"
	"rfly/internal/loc"
	"rfly/internal/relay"
	"rfly/internal/rng"
	"rfly/internal/signal"
	"rfly/internal/sim"
	"rfly/internal/world"
)

// SelfLocResult holds the drone self-localization (§5.1/§9) accuracy
// sample: the error in recovering the trajectory's absolute placement from
// the embedded tag's phases alone.
type SelfLocResult struct {
	ErrorsM []float64
	Failed  int
}

// SelfLocalization evaluates the §9 future-work direction implemented in
// loc.SelfLocalize: for each trial, an L-shaped flight is placed at a
// random offset from a known reader; the embedded tag's channels (with
// estimation noise) are handed to the solver in odometry coordinates, and
// the error is the distance between recovered and true offsets.
func SelfLocalization(trials int, seed uint64) SelfLocResult {
	root := rng.New(seed)
	var res SelfLocResult
	const freq = 915e6
	k := 4 * math.Pi * freq / signal.C
	for i := 0; i < trials; i++ {
		r := rng.New(root.Uint64())
		readerPos := geom.P(0, 0, 1.5)
		off := geom.Vec{X: r.Uniform(2, 7), Y: r.Uniform(2, 7)}
		// L-shaped path in absolute coordinates.
		var abs []geom.Point
		for j := 0; j <= 14; j++ {
			abs = append(abs, geom.P(off.X+0.2*float64(j), off.Y, 1.0))
		}
		for j := 1; j <= 10; j++ {
			abs = append(abs, geom.P(off.X+2.8, off.Y+0.2*float64(j), 1.0))
		}
		meas := make([]loc.Measurement, len(abs))
		for j, p := range abs {
			d := p.Dist(readerPos)
			h := cmplx.Rect(1/(d*d), -k*d)
			h += r.ComplexCircular(0.05 / (d * d)) // capture noise
			meas[j] = loc.Measurement{
				Pos: geom.P(p.X-off.X, p.Y-off.Y, p.Z),
				H:   h,
			}
		}
		cfg := loc.DefaultSelfLocalizeConfig(freq, 8)
		cfg.Search = loc.Region{X0: 0, Y0: 0, X1: 8, Y1: 8}
		got, _, err := loc.SelfLocalize(meas, readerPos, cfg)
		if err != nil {
			res.Failed++
			continue
		}
		res.ErrorsM = append(res.ErrorsM, math.Hypot(got.X-off.X, got.Y-off.Y))
	}
	return res
}

// DaisyChainRow is one row of the multi-hop range-extension table.
type DaisyChainRow struct {
	Hops int
	// TotalRangeM is the largest end-to-end reader→tag distance at which
	// the chain still (a) keeps every leg inside its hop's Eq. 3/4
	// stability range and (b) delivers −15 dBm to the tag, with the last
	// hop 2 m from the tag.
	TotalRangeM float64
	// TagRxDBm is the delivered power at that range.
	TagRxDBm float64
	// StabilityCapM is the per-leg stability bound (the binding limit).
	StabilityCapM float64
}

// DaisyChainSuiteHops is the hop depth the standard suite sweeps to —
// both the -fig extensions table and the JSON report use it, so the two
// outputs always describe the same chain. Four hops is where the §9
// linear-growth story flattens against the per-leg stability cap.
const DaisyChainSuiteHops = 4

// DaisyChainRange evaluates the §4.3/§9 multi-relay extension at the
// link-budget level. The single-relay range is not power-limited — free
// space would allow hundreds of meters — but STABILITY-limited: Eq. 3
// bounds each reader↔relay leg by the hop's isolation, which is exactly
// why the paper caps at ~83 m theoretical. Daisy-chaining restarts that
// budget at every hop, so the total range grows roughly linearly in the
// hop count (the §9 swarm thesis).
func DaisyChainRange(maxHops int, seed uint64) []DaisyChainRow {
	root := rng.New(seed)
	var rows []DaisyChainRow
	const (
		eirpDBm  = 36.0
		tagNeed  = -15.0
		freq     = 915e6
		lastHopM = 2.0
		marginDB = 10.0
	)
	// Build (and QA-screen) the full fleet once, then evaluate chains of
	// increasing length over the same units: real deployments bin out
	// relays whose isolation draw falls below spec.
	allRelays := make([]*relay.Relay, maxHops)
	allPlans := make([]relay.GainPlan, maxHops)
	allCaps := make([]float64, maxHops)
	for h := 0; h < maxHops; h++ {
		for attempt := 0; ; attempt++ {
			r := relay.New(relay.DefaultConfig(), rng.New(root.Uint64()))
			r.Lock(0)
			iso, err := r.MeasureAll(root.Split("iso"))
			if err != nil {
				continue // unreachable on a locked relay; redraw
			}
			plan := r.ProgramGains(iso)
			// The downlink forwarding loop is what rings; its isolation
			// (minus margin) sets the hop's stable leg length.
			cap := relay.MaxStableRangeM(iso.IntraDownlinkDB-marginDB, freq)
			if plan.Stable && cap >= 50 {
				allRelays[h], allPlans[h], allCaps[h] = r, plan, cap
				break
			}
			if attempt > 50 {
				allRelays[h], allPlans[h], allCaps[h] = r, plan, cap
				break
			}
		}
	}
	for hops := 1; hops <= maxHops; hops++ {
		relays := allRelays[:hops]
		plans := allPlans[:hops]
		caps := allCaps[:hops]
		// Binary-search the largest total range that satisfies both the
		// per-leg stability caps and the delivered-power threshold.
		lo, hi := lastHopM+1, 2000.0
		ok := func(total float64) bool {
			legs := equalLegsM(total, lastHopM, hops)
			for i, leg := range legs {
				if leg > caps[i] {
					return false
				}
			}
			tagDBm, stable := relay.ChainBudget(eirpDBm,
				legLossesDB(legs, lastHopM, freq), relays, plans)
			return stable && tagDBm >= tagNeed
		}
		for iter := 0; iter < 40; iter++ {
			mid := (lo + hi) / 2
			if ok(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		legs := equalLegsM(lo, lastHopM, hops)
		tagDBm, _ := relay.ChainBudget(eirpDBm, legLossesDB(legs, lastHopM, freq), relays, plans)
		minCap := caps[0]
		for _, c := range caps[1:] {
			minCap = math.Min(minCap, c)
		}
		rows = append(rows, DaisyChainRow{Hops: hops, TotalRangeM: lo, TagRxDBm: tagDBm, StabilityCapM: minCap})
	}
	return rows
}

// equalLegsM splits the reader→last-relay distance into equal legs.
func equalLegsM(totalM, lastHopM float64, hops int) []float64 {
	legs := make([]float64, hops)
	per := (totalM - lastHopM) / float64(hops)
	for i := range legs {
		legs[i] = per
	}
	return legs
}

// legLossesDB converts leg lengths to free-space losses plus the fixed
// relay→tag hop.
func legLossesDB(legsM []float64, lastHopM, freq float64) []float64 {
	out := make([]float64, len(legsM)+1)
	for i, d := range legsM {
		out[i] = fsplAt(d, freq)
	}
	out[len(legsM)] = fsplAt(lastHopM, freq)
	return out
}

func fsplAt(d, f float64) float64 {
	if d < 0.1 {
		d = 0.1
	}
	return 20 * math.Log10(4*math.Pi*d*f/signal.C)
}

// ThreeDResult holds the 3D localization evaluation (§5.2: a planar
// trajectory resolves height too — which shelf level an item sits on).
type ThreeDResult struct {
	ErrorsXY []float64 // horizontal error, m
	ErrorsZ  []float64 // height error, m
	Failed   int
}

// Localization3D runs lawnmower flights over tags placed at shelf heights
// 0–1.6 m and solves for (x, y, z) with loc.Localize3D.
func Localization3D(trials int, seed uint64) ThreeDResult {
	root := rng.New(seed)
	var res ThreeDResult
	for i := 0; i < trials; i++ {
		tseed := root.Uint64()
		r := rng.New(tseed)
		tagPos := geom.P(r.Uniform(0.5, 2.5), r.Uniform(1.2, 2.4), r.Uniform(0, 1.6))
		k := 4 * math.Pi * 915e6 / signal.C
		plan := geom.Lawnmower(0, -0.6, 3, 0.6, 2.4, 0.4, 0.25)
		meas := make([]loc.Measurement, 0, plan.Len())
		for _, p := range plan.Points {
			d := p.Dist(tagPos)
			h := cmplx.Rect(1/(d*d), -k*d)
			h += r.ComplexCircular(0.03 / (d * d))
			meas = append(meas, loc.Measurement{Pos: p, H: h})
		}
		cfg := loc.DefaultConfig(915e6)
		cfg.Region = &loc.Region{X0: -1, Y0: 0.9, X1: 4, Y1: 3}
		cfg.CoarseRes = 0.12
		cfg.FineRes = 0.02
		out, err := loc.Localize3DCtx(context.Background(), meas, plan, cfg, -0.2, 2.0)
		if err != nil {
			res.Failed++
			continue
		}
		res.ErrorsXY = append(res.ErrorsXY, out.Location.Dist2D(tagPos))
		res.ErrorsZ = append(res.ErrorsZ, math.Abs(out.Location.Z-tagPos.Z))
	}
	return res
}

// CrossFloorResult compares read rates for tags on the reader's own floor
// versus behind the floor slab (§7.2's experiments "span floors").
type CrossFloorResult struct {
	SameFloorPct  float64
	CrossDirect   float64 // direct reader, cross-floor
	CrossRelayPct float64 // relay hovering near the cross-floor tags
}

// CrossFloor measures the §7.2 cross-floor condition: a reader on floor 1,
// tags "on floor 2" behind a 20 dB slab. Direct reads die; the relay —
// which only needs its reader↔relay half-link to punch through the slab —
// restores coverage.
func CrossFloor(trials int, seed uint64) CrossFloorResult {
	scene := world.CrossFloor(40, 3)
	var res CrossFloorResult
	rate := func(useRelay bool, tagX, relayX float64, s uint64) float64 {
		ok := 0
		for i := 0; i < trials; i++ {
			d := sim.New(sim.Config{
				Scene:         scene,
				ReaderPos:     geom.P(2, 1.5, 1.5),
				UseRelay:      useRelay,
				RelayPos:      geom.P(relayX, 1.5, 1.2),
				ShadowSigmaDB: 3,
			}, s+uint64(i)*31)
			tg := d.AddTag(epcID(uint16(i)), geom.P(tagX, 1.5, 1))
			if d.ReadAttempt(tg) {
				ok++
			}
		}
		return 100 * float64(ok) / float64(trials)
	}
	// Same floor: tag 5 m away, no slab crossing (well inside the direct
	// reader's ~10 m power-up range).
	res.SameFloorPct = rate(false, 7, 0, seed^0x11)
	// Cross floor (x > 20 is behind the slab), direct.
	res.CrossDirect = rate(false, 26, 0, seed^0x22)
	// Cross floor through a relay hovering 2 m from the tags.
	res.CrossRelayPct = rate(true, 26, 24, seed^0x33)
	return res
}

func epcID(i uint16) epc.EPC { return epc.NewEPC96(i, 0xCF, 0, 0, 0, 0) }
