// Command rfly-sim runs a configurable RFly scenario end to end: it builds
// a scene, scatters tagged items, flies the relay drone along a survey
// plan, and prints the inventory/localization report.
//
// Usage:
//
//	rfly-sim [-scene open|corridor|warehouse|facility] [-tags N]
//	         [-seed N] [-norelay] [-mission] [-faults] [-map] [-v]
//	rfly-sim -checkpoint FILE [-seed N]    # supervised mission, resumable
//	rfly-sim -trace FILE [-seed N]         # supervised mission, Chrome trace JSON
//	rfly-sim -capture-log FILE [-seed N]   # supervised mission, columnar capture
//	                                       # log for rfly-replay re-solves
//	rfly-sim -plan greedy|coverage         # supervised mission flying a
//	                                       # planner-solved relay tour
//	rfly-sim -chaos N [-seed N]            # chaos invariant campaign
//	rfly-sim -swarm N [-kill-relay-at T]   # N-drone relay fleet; optionally
//	                                       # kill the serving primary at tick T
//	                                       # and promote a hot shadow mid-sortie
//
// Any supervised-mission flag (-checkpoint, -trace, -capture-log, -swarm)
// selects the supervised mission; they compose freely. -pprof host:port
// exposes net/http/pprof on a side listener in every mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rfly"
	"rfly/internal/fault"
	"rfly/internal/reader"
	"rfly/internal/relay"
	"rfly/internal/rng"
	"rfly/internal/world"
)

func main() {
	sceneName := flag.String("scene", "warehouse", "scene: open, corridor, warehouse, facility")
	tags := flag.Int("tags", 10, "number of tagged items to scatter")
	seed := flag.Uint64("seed", 1, "simulation seed")
	noRelay := flag.Bool("norelay", false, "disable the relay (direct-reader baseline)")
	verbose := flag.Bool("v", false, "print per-item detail")
	showMap := flag.Bool("map", false, "print a plan-view map of the scenario")
	mission := flag.Bool("mission", false, "print the coverage/battery plan for the scene before flying")
	faults := flag.Bool("faults", false, "inject a seeded fault schedule and compare a recovery-enabled survey against a nominal one")
	chaosSeeds := flag.Int("chaos", 0, "run a chaos campaign over N randomized fault schedules and kill/resume points")
	swarmRelays := flag.Int("swarm", 0, "fly the supervised mission with an N-drone relay fleet: one elected primary, hot pre-locked shadows")
	killRelayAt := flag.Int("kill-relay-at", -1, "kill the serving primary at this absolute mission tick and promote a shadow mid-sortie (requires -swarm)")
	planName := flag.String("plan", "", "fly the supervised mission on a planner-solved relay tour (greedy or coverage) instead of the fixed relay position")
	ckptPath := flag.String("checkpoint", "", "run the supervised mission, persisting (and resuming from) this checkpoint file")
	tracePath := flag.String("trace", "", "run the supervised mission under a flight recorder and write Chrome trace_event JSON here (Perfetto / chrome://tracing)")
	captureLog := flag.String("capture-log", "", "run the supervised mission and write its columnar capture log here (re-solve it with rfly-replay -log FILE)")
	pprofAddr := flag.String("pprof", "", "pprof listen address (e.g. localhost:6060; empty = disabled)")
	flag.Parse()

	if *pprofAddr != "" {
		// net/http/pprof registers on DefaultServeMux; the profiles
		// cover whichever mode runs below (chaos campaigns and long
		// missions are the interesting targets).
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof listener: %v\n", err)
			}
		}()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	// SIGINT/SIGTERM cancel the mission context: the engine rolls back to
	// the last sortie boundary, the checkpoint is flushed, and the
	// process exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *chaosSeeds > 0 {
		os.Exit(runChaos(ctx, *chaosSeeds, *seed))
	}
	if *killRelayAt >= 0 && *swarmRelays <= 0 {
		fmt.Fprintln(os.Stderr, "-kill-relay-at needs a fleet: pass -swarm N")
		os.Exit(2)
	}
	if *ckptPath != "" || *tracePath != "" || *captureLog != "" || *swarmRelays > 0 || *planName != "" {
		os.Exit(runMission(ctx, *seed, *planName, *ckptPath, *tracePath, *captureLog, *swarmRelays, *killRelayAt))
	}

	var scene *rfly.Scene
	var readerPos rfly.Point
	var aisles []float64
	var xRange [2]float64
	switch *sceneName {
	case "open":
		scene = rfly.OpenSpace()
		readerPos = rfly.At(-10, 1, 1.5)
		aisles = []float64{0}
		xRange = [2]float64{0, 10}
	case "corridor":
		scene = rfly.Corridor(40, 3)
		readerPos = rfly.At(0.5, 1.5, 1.5)
		aisles = []float64{1.2}
		xRange = [2]float64{3, 38}
	case "warehouse":
		scene = rfly.Warehouse(30, 20, 3)
		readerPos = rfly.At(1.5, 1.0, 2.0)
		aisles = []float64{3.6, 8.6, 13.6}
		xRange = [2]float64{4, 26}
	case "facility":
		scene = rfly.ResearchFacility()
		readerPos = rfly.At(2, 2, 1.5)
		aisles = []float64{4, 8}
		xRange = [2]float64{4, 28}
	default:
		fmt.Fprintf(os.Stderr, "unknown scene %q\n", *sceneName)
		os.Exit(2)
	}

	// build constructs a fresh, identically-seeded scenario — the fault
	// demo needs one system per arm so the arms cannot contaminate each
	// other through mutated relay state.
	build := func() *rfly.System {
		sys := rfly.New(rfly.Options{
			Scene:              scene,
			ReaderPos:          readerPos,
			NoRelay:            *noRelay,
			ShadowSigmaDB:      3,
			GroundReflectivity: 0.3,
			Seed:               *seed,
		})
		// Scatter items along the aisles' +Y faces.
		src := rng.New(*seed)
		for i := 0; i < *tags; i++ {
			aisle := aisles[i%len(aisles)]
			x := src.Uniform(xRange[0]+1, xRange[1]-1)
			y := aisle + src.Uniform(0.6, 1.4)
			name := fmt.Sprintf("item-%02d", i+1)
			if err := sys.RegisterItem(name, rfly.NewEPC96(0xE280, 0xCAFE, uint16(i), 0, 0, 0),
				rfly.At(x, y, 0.2)); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return sys
	}
	sys := build()

	if *faults {
		if *noRelay {
			fmt.Fprintln(os.Stderr, "-faults needs the relay (drop -norelay)")
			os.Exit(2)
		}
		faultDemo(build, *sceneName, *seed, aisles[0], xRange)
		return
	}

	if *mission {
		m := rfly.Mission{
			X0: xRange[0], Y0: aisles[0],
			X1: xRange[1], Y1: aisles[len(aisles)-1] + 2,
			AltitudeM:   1.2,
			ReadRadiusM: 6,
			Overlap:     0.15,
		}
		plan, err := m.PlanCoverage(rfly.Bebop2(), rfly.Bebop2Endurance())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("mission: %v\n", plan)
		cycle := plan.Inventory(*tags, 760)
		fmt.Printf("inventory cycle for %d tags: %v (read budget %d)\n\n",
			*tags, cycle.Total.Round(time.Second), cycle.ReadBudget)
	}

	if *showMap {
		markers := []world.Marker{{Pos: readerPos, Glyph: 'R'}}
		for _, it := range sys.Items() {
			markers = append(markers, world.Marker{Pos: it.TruePos, Glyph: 't'})
		}
		fmt.Println("plan view (R = reader, t = tags; # concrete, = steel, - drywall):")
		fmt.Print(scene.RenderASCII(markers, 2))
		fmt.Println()
	}

	if *noRelay {
		fmt.Printf("scene %s, %d items, DIRECT READER at %v\n", *sceneName, *tags, readerPos)
		read := 0
		for _, it := range sys.Items() {
			rate, err := sys.ReadRate(it.EPC, 20)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if rate > 0.5 {
				read++
			}
			if *verbose {
				fmt.Printf("  %-10s at (%.1f, %.1f): %3.0f%%\n", it.Name, it.TruePos.X, it.TruePos.Y, 100*rate)
			}
		}
		fmt.Printf("readable items: %d/%d\n", read, *tags)
		return
	}

	fmt.Printf("scene %s, %d items, relay survey from reader at %v\n", *sceneName, *tags, readerPos)
	located, detected := 0, 0
	var errSum float64
	for _, aisle := range aisles {
		plan := rfly.Line(rfly.At(xRange[0], aisle, 1.2), rfly.At(xRange[1], aisle, 1.2), 140)
		report, err := sys.Survey(plan, rfly.SurveyOptions{
			SearchRegion:   &rfly.Region{X0: xRange[0] - 1, Y0: aisle + 0.2, X1: xRange[1] + 1, Y1: aisle + 1.8},
			RoundsPerPoint: 2,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, li := range report.Located {
			located++
			errSum += li.ErrorM
			if *verbose {
				fmt.Printf("  %-10s located (%5.2f, %5.2f) err %4.0f cm, %d reads, SNR %.0f dB\n",
					li.Name, li.Location.X, li.Location.Y, 100*li.ErrorM, li.Reads, li.MeanSNRdB)
			}
		}
		detected += len(report.DetectedOnly)
	}
	fmt.Printf("located %d/%d items (plus %d detected-only)\n", located, *tags, detected)
	if located > 0 {
		fmt.Printf("mean localization error: %.0f cm\n", 100*errSum/float64(located))
	}
}

// faultDemo flies the relay down the first aisle twice under the SAME
// seeded fault schedule — once with every recovery mechanism disabled,
// once with the full stack (watchdog re-lock, MAC retry, gain reprogram,
// station-keeping, battery swap) — and prints what the faults cost each
// arm in per-tick reads of the nearest item.
func faultDemo(build func() *rfly.System, sceneName string, seed uint64, aisle float64, xRange [2]float64) {
	const ticks = 80
	sched, err := fault.Plan(fault.PlanConfig{Ticks: ticks * 3 / 4}, rng.New(seed).Split("fault-demo"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("scene %s, seeded fault schedule over %d survey ticks:\n", sceneName, ticks)
	for _, ev := range sched.Sorted() {
		fmt.Printf("  %v\n", ev)
	}

	ctx := context.Background() // never ends, so the Ctx calls below cannot fail
	run := func(recover bool) (reads int) {
		sys := build()
		d := sys.Deployment()
		plan := rfly.Line(rfly.At(xRange[0], aisle, 1.2), rfly.At(xRange[1], aisle, 1.2), ticks)
		inj, err := fault.NewInjector(sched, d)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var wd *relay.Watchdog
		if recover {
			wd, _ = relay.NewWatchdog(d.Relay, relay.WatchdogConfig{})
		}
		pol := reader.DefaultRetryPolicy()
		sagTicks := -1
		for _, pt := range plan.Points {
			d.MoveRelay(pt)
			inj.Step()
			if recover {
				wd.TickCtx(ctx, d)
				if !d.RelayPowered() {
					sagTicks++
					if sagTicks >= 5 {
						d.SetRelayPowered(true)
						sagTicks = -1
					}
				}
				d.StationKeep(2)
				if !d.RelayPlanStable() {
					d.ReprogramGains()
				}
			}
			// Read the item nearest the current hover point.
			var nearest int
			best := -1.0
			for j, t := range d.Tags {
				dist := t.Pos.Dist(d.RelayPos)
				if best < 0 || dist < best {
					best, nearest = dist, j
				}
			}
			if len(d.Tags) == 0 {
				continue
			}
			if recover {
				if ok, _ := d.ReadAttemptRetryCtx(ctx, d.Tags[nearest], pol, nil); ok {
					reads++
				}
			} else if d.ReadAttempt(d.Tags[nearest]) {
				reads++
			}
		}
		return reads
	}

	nominal := run(false)
	recovery := run(true)
	fmt.Printf("\nnominal   (no recovery):   %d/%d ticks read the nearest item (%.0f%%)\n",
		nominal, ticks, 100*float64(nominal)/ticks)
	fmt.Printf("recovery  (full stack):    %d/%d ticks read the nearest item (%.0f%%)\n",
		recovery, ticks, 100*float64(recovery)/ticks)
	fmt.Println("recovery = watchdog re-lock + MAC retry + gain reprogram + station-keep + battery swap")
}
