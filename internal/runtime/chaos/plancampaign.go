package chaos

import (
	"bytes"
	"context"
	"fmt"
	"reflect"

	"rfly/internal/fault"
	"rfly/internal/geom"
	"rfly/internal/rng"
	"rfly/internal/runtime"
)

// Plan-provenance campaign: the scenario engine's chaos harness. For
// each seed it draws a randomized fault schedule — including the
// adversarial-RF Jamming class — over a PLANNED mission (one flying a
// multi-station relay tour from internal/plan), kills the mission
// mid-sortie at a random point, resumes from the last boundary
// checkpoint, and asserts:
//
//   - kill/resume equivalence: the resumed mission's CSV matches the
//     uninterrupted twin byte for byte;
//   - checkpoint bit-identity: every boundary checkpoint the resumed
//     mission emits equals the twin's checkpoint at the same boundary,
//     byte for byte — the plan-provenance block included;
//   - provenance integrity: DecodePlanProvenance on every checkpoint
//     (twin and resumed) yields exactly the mission's plan — no fault
//     combination, kill point, or resume can corrupt, drop, or mutate
//     the plan a mission carries.

// PlanCampaignConfig shapes a plan-provenance campaign.
type PlanCampaignConfig struct {
	// Seeds is how many randomized runs to execute (default 16).
	Seeds int
	// BaseSeed roots the campaign's derivations.
	BaseSeed uint64
	// Mission is the planned mission template; it must carry PlanStations.
	// Zero value → DefaultPlanMission.
	Mission runtime.Config
	// Plan bounds the random schedules. Classes defaults to the core set
	// plus Jamming; Ticks to the mission length.
	Plan fault.PlanConfig
	// Logf, when set, receives one line per completed run.
	Logf func(format string, args ...any)
}

// DefaultPlanMission is the canonical campaign mission: the supervised
// corridor mission flying a three-station relay tour, as if solved by
// the coverage-aware planner.
func DefaultPlanMission(seed uint64) runtime.Config {
	cfg := runtime.DefaultConfig(seed)
	cfg.Sorties = 3
	cfg.TicksPerSortie = 24
	cfg.SARPointsPerSortie = 8
	cfg.Schedule = fault.Schedule{}
	cfg.PlanName = "coverage-aware"
	cfg.PlanHash = 0x5ce9a51ab0f2017d
	cfg.PlanStations = []geom.Point{
		geom.P(28.2, 1.5, 1.2),
		geom.P(25.5, 1.8, 1.2),
		geom.P(30.5, 1.2, 1.2),
	}
	return cfg
}

// PlanCampaignResult summarizes a campaign.
type PlanCampaignResult struct {
	Runs       int
	Resumes    int
	Boundaries int // boundary checkpoints cross-checked bit for bit
	Violations []Violation
}

// RunPlanCampaign executes the campaign. Violations are collected, not
// fatal; the error return is only for a cancelled context or an
// unbuildable mission.
func RunPlanCampaign(ctx context.Context, cfg PlanCampaignConfig) (PlanCampaignResult, error) {
	var res PlanCampaignResult
	if cfg.Seeds <= 0 {
		cfg.Seeds = 16
	}
	mission := cfg.Mission
	if mission.Sorties == 0 {
		mission = DefaultPlanMission(0)
	}
	if len(mission.PlanStations) == 0 {
		return res, fmt.Errorf("chaos: plan campaign needs a planned mission (no PlanStations)")
	}
	plan := cfg.Plan
	if plan.Ticks <= 0 {
		plan.Ticks = mission.Sorties * mission.TicksPerSortie
	}
	if plan.Classes == nil {
		plan.Classes = append(fault.CoreClasses(), fault.Jamming)
	}

	for seed := 0; seed < cfg.Seeds; seed++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		src := rng.New(cfg.BaseSeed).Split(fmt.Sprintf("plan-chaos-%d", seed))
		schedule, err := fault.Plan(plan, src.Split("schedule"))
		if err != nil {
			return res, fmt.Errorf("chaos: seed %d schedule: %w", seed, err)
		}
		m := mission
		m.Seed = src.Uint64()
		m.Schedule = schedule
		killSortie := src.Intn(m.Sorties)
		killTick := src.Intn(m.TicksPerSortie)

		v, stats, err := runPlanPair(ctx, seed, m, killSortie, killTick)
		if err != nil {
			return res, err
		}
		res.Runs++
		res.Resumes += stats.resumes
		res.Boundaries += stats.boundaries
		res.Violations = append(res.Violations, v...)
		if cfg.Logf != nil {
			cfg.Logf("plan-chaos seed %3d: %2d events, kill@(%d,%d), %d boundaries, %d violations",
				seed, len(schedule.Events), killSortie, killTick, stats.boundaries, len(v))
		}
	}
	return res, nil
}

type planStats struct {
	resumes    int
	boundaries int
}

// checkProvenance decodes ckpt's plan block and asserts it carries
// exactly m's plan.
func checkProvenance(seed int, m runtime.Config, where string, ckpt []byte) *Violation {
	p, ok, err := runtime.DecodePlanProvenance(ckpt)
	if err != nil || !ok {
		return &Violation{seed, "plan-provenance",
			fmt.Sprintf("%s: checkpoint provenance unreadable (ok=%t): %v", where, ok, err)}
	}
	if p.Name != m.PlanName || p.Hash != m.PlanHash || !reflect.DeepEqual(p.Stations, m.PlanStations) {
		return &Violation{seed, "plan-provenance",
			fmt.Sprintf("%s: checkpoint carries plan %q/%016x/%d stations, mission flies %q/%016x/%d",
				where, p.Name, p.Hash, len(p.Stations), m.PlanName, m.PlanHash, len(m.PlanStations))}
	}
	return nil
}

// runPlanPair runs one seed: the uninterrupted twin collecting boundary
// checkpoints, the kill/resume replica, then the CSV, checkpoint, and
// provenance diffs.
func runPlanPair(ctx context.Context, seed int, m runtime.Config, killSortie, killTick int) ([]Violation, planStats, error) {
	var stats planStats
	var violations []Violation

	twin, err := runtime.New(m)
	if err != nil {
		return nil, stats, fmt.Errorf("chaos: seed %d: %w", seed, err)
	}
	twinCkpts := map[int][]byte{}
	twin.CheckpointSink = func(done int, ckpt []byte) { twinCkpts[done] = ckpt }
	twinRes, err := twin.Run(ctx)
	if err != nil {
		return violations, stats, err
	}
	want := twinRes.CSV()
	for done, ckpt := range twinCkpts {
		if v := checkProvenance(seed, m, fmt.Sprintf("twin boundary %d", done), ckpt); v != nil {
			violations = append(violations, *v)
		}
	}

	// Kill/resume replica: run to the kill sortie's boundary, checkpoint,
	// die mid-sortie at the kill tick, restore, finish — collecting every
	// post-resume boundary checkpoint.
	rep, err := runtime.New(m)
	if err != nil {
		return violations, stats, err
	}
	if err := rep.RunSorties(ctx, killSortie); err != nil {
		return violations, stats, err
	}
	snap := rep.SnapshotCtx(context.Background())
	if v := checkProvenance(seed, m, "pre-kill snapshot", snap); v != nil {
		violations = append(violations, *v)
	}

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
		violations = append(violations, Violation{seed, "kill-resume",
			"cancelled sortie committed anyway"})
	}

	res, err := runtime.Restore(m, snap)
	if err != nil {
		violations = append(violations, Violation{seed, "kill-resume",
			fmt.Sprintf("restore failed: %v", err)})
		return violations, stats, nil
	}
	stats.resumes++
	resCkpts := map[int][]byte{}
	res.CheckpointSink = func(done int, ckpt []byte) { resCkpts[done] = ckpt }
	finRes, err := res.Run(ctx)
	if err != nil {
		return violations, stats, err
	}
	if got := finRes.CSV(); got != want {
		violations = append(violations, Violation{seed, "kill-resume",
			fmt.Sprintf("resumed CSV diverged from uninterrupted run (kill at sortie %d tick %d)",
				killSortie, killTick)})
	}

	// Every post-resume boundary checkpoint must equal the twin's at the
	// same boundary, byte for byte — plan block included — and decode to
	// the mission's plan.
	for done, ckpt := range resCkpts {
		stats.boundaries++
		twinCkpt, ok := twinCkpts[done]
		if !ok {
			violations = append(violations, Violation{seed, "checkpoint-identity",
				fmt.Sprintf("resumed mission checkpointed boundary %d the twin never reached", done)})
			continue
		}
		if !bytes.Equal(ckpt, twinCkpt) {
			violations = append(violations, Violation{seed, "checkpoint-identity",
				fmt.Sprintf("boundary %d checkpoint differs from twin after resume (kill at sortie %d tick %d)",
					done, killSortie, killTick)})
		}
		if v := checkProvenance(seed, m, fmt.Sprintf("resumed boundary %d", done), ckpt); v != nil {
			violations = append(violations, *v)
		}
	}
	return violations, stats, nil
}
