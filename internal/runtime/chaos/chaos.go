// Package chaos fuzzes the mission runtime: for each seed it draws a
// randomized fault schedule and a randomized kill point, runs the
// mission supervised, and asserts the global invariants that must
// survive ANY combination of faults, recoveries, and checkpoint
// boundaries:
//
//   - energy conservation in every link budget the engine acted on
//     (sim.CheckBudgetInvariants: no regenerated energy, no signal
//     through a dead or unlocked link);
//   - a monotone mission clock (ticks never repeat or rewind, across
//     sortie and checkpoint boundaries);
//   - no successful reads while the relay's carrier lock is unhealthy;
//   - kill/resume equivalence: killing the mission at the drawn point
//     and resuming from the last checkpoint reproduces the
//     uninterrupted mission's CSV byte for byte.
//
// The harness is deterministic end to end — a failing seed replays
// exactly — which is what makes a chaos finding debuggable.
package chaos

import (
	"context"
	"fmt"

	"rfly/internal/fault"
	"rfly/internal/rng"
	"rfly/internal/runtime"
)

// Config shapes a chaos campaign.
type Config struct {
	// Seeds is how many randomized schedules to run.
	Seeds int
	// BaseSeed roots the campaign's derivations; two campaigns with the
	// same BaseSeed and Seeds run identical schedules.
	BaseSeed uint64
	// Mission is the mission template. Seed and Schedule are overridden
	// per run; everything else (geometry, tags, policies) is shared.
	Mission runtime.Config
	// Plan bounds the random schedules. Ticks defaults to the mission
	// length; Classes defaults to all fault classes.
	Plan fault.PlanConfig
	// Logf, when set, receives one line per completed run.
	Logf func(format string, args ...any)
}

// Violation is one invariant failure, with everything needed to replay.
type Violation struct {
	Seed      int
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("seed %d: %s: %s", v.Seed, v.Invariant, v.Detail)
}

// Result summarizes a campaign.
type Result struct {
	Runs         int
	TicksChecked int64
	Resumes      int
	Aborts       int
	Violations   []Violation
}

// checker wires the per-tick invariants into an engine observer.
type checker struct {
	seed           int
	ticksPerSortie int
	lastClock      int64
	ticks          int64
	violations     []Violation
}

func (c *checker) observe(o runtime.TickObs) {
	c.ticks++
	if o.Clock <= c.lastClock {
		c.violations = append(c.violations, Violation{c.seed, "monotone-clock",
			fmt.Sprintf("clock %d after %d", o.Clock, c.lastClock)})
	}
	if want := int64(o.Sortie)*int64(c.ticksPerSortie) + int64(o.Tick); o.Clock != want {
		c.violations = append(c.violations, Violation{c.seed, "monotone-clock",
			fmt.Sprintf("clock %d but sortie %d tick %d implies %d", o.Clock, o.Sortie, o.Tick, want)})
	}
	c.lastClock = o.Clock
	if err := o.Deployment.CheckBudgetInvariants(o.Tag, o.Budget); err != nil {
		c.violations = append(c.violations, Violation{c.seed, "energy-conservation", err.Error()})
	}
	if o.Reads > 0 && !o.LockHealthy {
		c.violations = append(c.violations, Violation{c.seed, "unlocked-read",
			fmt.Sprintf("%d reads at clock %d with relay lock unhealthy", o.Reads, o.Clock)})
	}
}

// Run executes the campaign. It returns early only when ctx is
// cancelled; invariant violations are collected, not fatal, so one bad
// seed does not hide the rest.
func Run(ctx context.Context, cfg Config) (Result, error) {
	var res Result
	if cfg.Seeds <= 0 {
		cfg.Seeds = 50
	}
	mission := cfg.Mission
	if mission.Sorties == 0 {
		mission = runtime.DefaultConfig(0)
	}
	plan := cfg.Plan
	if plan.Ticks <= 0 {
		plan.Ticks = mission.Sorties * mission.TicksPerSortie
	}

	for seed := 0; seed < cfg.Seeds; seed++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		src := rng.New(cfg.BaseSeed).Split(fmt.Sprintf("chaos-%d", seed))
		schedule, err := fault.Plan(plan, src.Split("schedule"))
		if err != nil {
			return res, fmt.Errorf("chaos: seed %d schedule: %w", seed, err)
		}
		m := mission
		m.Seed = src.Uint64()
		m.Schedule = schedule
		killSortie := src.Intn(m.Sorties)
		killTick := src.Intn(m.TicksPerSortie)

		v, stats, err := runOne(ctx, seed, m, killSortie, killTick)
		if err != nil {
			return res, err
		}
		res.Runs++
		res.TicksChecked += stats.ticks
		res.Resumes += stats.resumes
		res.Aborts += stats.aborts
		res.Violations = append(res.Violations, v...)
		if cfg.Logf != nil {
			cfg.Logf("chaos seed %3d: %2d events, kill@(%d,%d), %d ticks, %d aborts, %d violations",
				seed, len(schedule.Events), killSortie, killTick, stats.ticks, stats.aborts, len(v))
		}
	}
	return res, nil
}

type runStats struct {
	ticks   int64
	resumes int
	aborts  int
}

// runOne runs one seed: the supervised reference mission with the
// invariant observer, then the kill/resume replica, then the CSV diff.
func runOne(ctx context.Context, seed int, m runtime.Config, killSortie, killTick int) ([]Violation, runStats, error) {
	var stats runStats
	chk := &checker{seed: seed, ticksPerSortie: m.TicksPerSortie, lastClock: -1}

	ref, err := runtime.New(m)
	if err != nil {
		return nil, stats, fmt.Errorf("chaos: seed %d: %w", seed, err)
	}
	ref.Observer = chk.observe
	refRes, err := ref.Run(ctx)
	if err != nil {
		return chk.violations, stats, err // only ctx cancellation reaches here
	}
	stats.ticks = chk.ticks
	for _, s := range refRes.Sorties {
		if s.Aborted {
			stats.aborts++
		}
	}
	want := refRes.CSV()

	// Kill/resume replica: run to the kill sortie's boundary, checkpoint,
	// die mid-sortie at the kill tick, restore, finish. The clock must
	// stay monotone THROUGH the resume, so the checker carries over.
	rep, err := runtime.New(m)
	if err != nil {
		return chk.violations, stats, err
	}
	if err := rep.RunSorties(ctx, killSortie); err != nil {
		return chk.violations, stats, err
	}
	snap := rep.SnapshotCtx(context.Background())

	kctx, cancel := context.WithCancel(ctx)
	fired := false
	rep.Observer = func(o runtime.TickObs) {
		if !fired && o.Tick >= killTick {
			fired = true
			cancel()
		}
	}
	_, killErr := rep.RunSortie(kctx)
	cancel()
	if killErr == nil && fired {
		chk.violations = append(chk.violations, Violation{seed, "kill-resume",
			"cancelled sortie committed anyway"})
	}

	res, err := runtime.Restore(m, snap)
	if err != nil {
		chk.violations = append(chk.violations, Violation{seed, "kill-resume",
			fmt.Sprintf("restore failed: %v", err)})
		return chk.violations, stats, nil
	}
	rchk := &checker{seed: seed, ticksPerSortie: m.TicksPerSortie, lastClock: int64(killSortie)*int64(m.TicksPerSortie) - 1}
	res2 := res
	res2.Observer = rchk.observe
	finRes, err := res2.Run(ctx)
	if err != nil {
		return chk.violations, stats, err
	}
	stats.resumes++
	stats.ticks += rchk.ticks
	chk.violations = append(chk.violations, rchk.violations...)
	if got := finRes.CSV(); got != want {
		chk.violations = append(chk.violations, Violation{seed, "kill-resume",
			fmt.Sprintf("resumed CSV diverged from uninterrupted run (kill at sortie %d tick %d)",
				killSortie, killTick)})
	}
	return chk.violations, stats, nil
}
