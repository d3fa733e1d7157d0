// Package runtime is RFly's supervised mission engine: it runs a
// multi-sortie inventory mission as a sequence of deterministic sorties,
// supervises the relay link through each one (health probes, an
// escalation ladder, a circuit breaker), threads a context deadline
// through every layer of the hot path, and checkpoints mission state at
// every sortie boundary so a killed mission resumes bit-identically.
//
// The unit of recovery is the sortie. Each sortie's deployment is
// rebuilt deterministically from (config, mission RNG stream), and
// everything that must survive the rebuild — persistent fault damage,
// the drone's pose, the relay's lock and gain state, accumulated
// inventory and SAR captures — travels in an explicit, serializable
// Carryover. That is what makes checkpoint/resume exact: a checkpoint is
// the carryover plus the mission RNG state plus the committed results,
// and replaying sortie k from its start always reproduces the same bits
// because no hidden state crosses the boundary.
package runtime

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"rfly/internal/capture"
	"rfly/internal/drone"
	"rfly/internal/epc"
	"rfly/internal/fault"
	"rfly/internal/geom"
	"rfly/internal/loc"
	"rfly/internal/obs"
	"rfly/internal/reader"
	"rfly/internal/relay"
	"rfly/internal/rng"
	"rfly/internal/sim"
	"rfly/internal/swarm"
	"rfly/internal/tag"
	"rfly/internal/world"
)

// TagSpec places one inventory target in the corridor.
type TagSpec struct {
	ID      uint16
	X, Y, Z float64
}

// Config describes a mission. Every field is a scalar, a flat slice, or
// a value type so the config hashes canonically — the checkpoint stores
// the hash and Resume refuses a checkpoint taken under different
// parameters.
type Config struct {
	Seed uint64
	// Sorties and TicksPerSortie shape the mission clock: the global tick
	// t lives in sortie t/TicksPerSortie.
	Sorties        int
	TicksPerSortie int

	// Corridor geometry, matching the Figure 11 fault corridor.
	CorridorLengthM float64
	CorridorWidthM  float64
	ReaderPos       geom.Point
	RelayPos        geom.Point
	ShadowSigmaDB   float64

	// ChannelHz is the mission's channel plan: the carrier the
	// end-of-mission SAR solve assumes. The fleet scheduler batches only
	// requests that share it. Zero defaults to the US band center.
	ChannelHz float64

	Tags []TagSpec

	// Schedule's event Start ticks are on the GLOBAL mission clock; each
	// sortie sees the events whose start falls inside its tick window,
	// shifted to sortie-relative time. Revertible events are clipped to
	// their sortie (the landing ends the gust / clears the droop);
	// persistent damage crosses the boundary through the Carryover.
	Schedule fault.Schedule

	Retry      reader.RetryPolicy
	Supervisor SupervisorConfig
	// SwapDelayTicks is the emergency battery-swap turnaround;
	// StationKeepStepM the controller's per-tick authority.
	SwapDelayTicks   int
	StationKeepStepM float64

	// SARPointsPerSortie, when positive, ends each sortie with a short
	// SAR line flight whose disentangled captures accumulate across
	// sorties (and through checkpoints) into the mission's localization
	// aperture.
	SARPointsPerSortie int

	// PlanName/PlanHash/PlanStations carry the relay plan the mission
	// flies, when one was solved (internal/plan): the emitting planner's
	// name, the plan fingerprint (plan.Result.Hash), and the station tour.
	// Sortie k station-keeps at PlanStations[k % len] instead of RelayPos,
	// and every checkpoint embeds the provenance so a resumed mission can
	// prove it holds the plan it started with. Empty means an unplanned
	// mission — bit-identical to pre-plan behavior.
	PlanName     string
	PlanHash     uint64
	PlanStations []geom.Point

	// Swarm, when enabled (Relays > 0), flies a coordinated relay fleet
	// instead of a single airframe: per-cell leader election, hot-spare
	// shadows pre-locked on the frequency plan, and mid-sortie failover.
	// In swarm mode the SAR aperture is flown INSIDE the tick loop (the
	// last SARPointsPerSortie ticks of each sortie) so the supervisor's
	// failover rung covers the capture too. The zero value keeps the
	// single-relay engine bit-identical to its pre-swarm behavior.
	Swarm swarm.Config
}

// DefaultConfig returns a small but fully-featured mission.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:            seed,
		Sorties:         4,
		TicksPerSortie:  30,
		CorridorLengthM: 40,
		CorridorWidthM:  3,
		ReaderPos:       geom.P(0.5, 1.5, 1.2),
		RelayPos:        geom.P(28.2, 1.5, 1.2),
		ShadowSigmaDB:   3,
		Tags: []TagSpec{
			{ID: 1, X: 30, Y: 1.5, Z: 1.0},
			{ID: 2, X: 29, Y: 1.0, Z: 1.0},
		},
		Retry:            reader.DefaultRetryPolicy(),
		Supervisor:       DefaultSupervisorConfig(),
		SwapDelayTicks:   6,
		StationKeepStepM: 2,
	}
}

func (c *Config) defaults() error {
	if c.Sorties <= 0 || c.TicksPerSortie <= 0 {
		return fmt.Errorf("runtime: mission needs positive sorties (%d) and ticks (%d)",
			c.Sorties, c.TicksPerSortie)
	}
	if len(c.Tags) == 0 {
		return fmt.Errorf("runtime: mission needs at least one tag")
	}
	if c.SwapDelayTicks <= 0 {
		c.SwapDelayTicks = 6
	}
	if c.StationKeepStepM <= 0 {
		c.StationKeepStepM = 2
	}
	if c.ChannelHz <= 0 {
		c.ChannelHz = 915e6
	}
	if len(c.PlanStations) > 0 {
		if c.PlanName == "" {
			return fmt.Errorf("runtime: plan stations without a planner name")
		}
		if len(c.PlanName) > 256 || len(c.PlanStations) > 256 {
			return fmt.Errorf("runtime: plan provenance oversized (%d-byte name, %d stations)",
				len(c.PlanName), len(c.PlanStations))
		}
		for i, st := range c.PlanStations {
			for _, v := range []float64{st.X, st.Y, st.Z} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("runtime: plan station %d is not finite: %v", i, st)
				}
			}
		}
	} else if c.PlanName != "" || c.PlanHash != 0 {
		return fmt.Errorf("runtime: plan provenance (%q/%016x) without stations", c.PlanName, c.PlanHash)
	}
	c.Supervisor.defaults()
	if c.Swarm.Enabled() {
		c.Swarm.Defaults()
		if err := c.Swarm.Validate(); err != nil {
			return err
		}
		if c.SARPointsPerSortie > c.TicksPerSortie {
			return fmt.Errorf("runtime: swarm missions fly the aperture in-loop; %d SAR points do not fit %d ticks",
				c.SARPointsPerSortie, c.TicksPerSortie)
		}
	}
	if err := c.Schedule.Validate(); err != nil {
		return err
	}
	return nil
}

// hash fingerprints the config for checkpoint compatibility checks.
func (c Config) hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%g|%g|%v|%v|%g|%g|%d|%g|%d|", c.Seed, c.Sorties, c.TicksPerSortie,
		c.CorridorLengthM, c.CorridorWidthM, c.ReaderPos, c.RelayPos, c.ShadowSigmaDB,
		c.ChannelHz, c.SwapDelayTicks, c.StationKeepStepM, c.SARPointsPerSortie)
	for _, t := range c.Tags {
		fmt.Fprintf(h, "t%d:%g,%g,%g|", t.ID, t.X, t.Y, t.Z)
	}
	for _, e := range c.Schedule.Sorted() {
		fmt.Fprintf(h, "e%d:%d:%d:%g:%g|", int(e.Class), e.Start, e.Duration, e.Severity, e.Param)
	}
	if len(c.PlanStations) > 0 {
		fmt.Fprintf(h, "p%s:%016x", c.PlanName, c.PlanHash)
		for _, st := range c.PlanStations {
			fmt.Fprintf(h, ":%g,%g,%g", st.X, st.Y, st.Z)
		}
		fmt.Fprint(h, "|")
	}
	fmt.Fprintf(h, "r%d:%d:%d:%d|s%d:%d:%d:%d", c.Retry.MaxRetries, c.Retry.BackoffSlots,
		c.Retry.MaxBackoffSlots, c.Retry.JitterSlots, c.Supervisor.RelockTicks,
		c.Supervisor.MaxRecoveryFailures, c.Supervisor.CooldownTicks, c.Supervisor.MaxBreakerTrips)
	if c.Swarm.Enabled() {
		fmt.Fprintf(h, "|w%d:%d:%d:%t:%g", c.Swarm.Relays, c.Swarm.Cells,
			int(c.Swarm.Topology), c.Swarm.ColdSpares, c.Swarm.CellSpacingM)
	}
	return h.Sum64()
}

// station is sortie s's relay station: the planned tour position when
// the mission flies a plan (wrapping if the tour is shorter than the
// mission), the fixed RelayPos otherwise.
func (c Config) station(s int) geom.Point {
	if len(c.PlanStations) == 0 {
		return c.RelayPos
	}
	return c.PlanStations[s%len(c.PlanStations)]
}

// Carryover is the state that outlives a sortie's deployment: persistent
// fault damage and the airframe's pose. It is exactly what a checkpoint
// stores, so every field must be serializable and every omission is a
// resume bug.
type Carryover struct {
	RelayPowered    bool
	RelayLocked     bool
	RelayReaderFreq float64
	RelayCFOHz      float64
	ReaderHopHz     float64
	AntennaIsoDB    float64
	// HasIso guards Iso/Gains: false until the first sortie commits.
	HasIso bool
	Iso    relay.IsolationReport
	Gains  relay.GainPlan
	// RelayPos is where the airframe ended the sortie (a gust may have
	// displaced it); the next sortie launches from there and
	// station-keeps back to plan.
	RelayPos geom.Point
	// Swarm carries the fleet across sorties (election term, primary,
	// per-member state); empty for single-relay missions.
	Swarm swarm.State
}

// SortieResult is one sortie's committed outcome.
type SortieResult struct {
	Sortie    int
	StartTick int64
	Attempts  int // read attempts (ticks × tags, minus aborted tail)
	Reads     int
	TagReads  []uint32 // per-tag read counts, index-aligned with Config.Tags
	// Watchdog and supervisor bookkeeping.
	Relocks           int
	Resweeps          int
	LossEvents        int
	Recoveries        int
	FailedRecoveries  int
	BreakerTrips      int
	BatterySwaps      int
	LaunchRelockTicks int
	Aborted           bool
	// SARPoints is how many usable SAR captures this sortie contributed.
	SARPoints int
	// MeanSNRdB averages the finite supervision-budget SNRs.
	MeanSNRdB float64
	// Elections/Promotions count the swarm coordinator's activity (zero
	// for single-relay missions).
	Elections  int
	Promotions int
	// Handoffs are the sortie's mid-flight failover records, in order.
	Handoffs []swarm.HandoffRecord
}

// TickObs is what the engine shows an observer each tick: enough to
// check every global invariant without touching the deterministic
// streams. Observers must not mutate the deployment.
type TickObs struct {
	Clock       int64 // global mission tick
	Sortie      int
	Tick        int // sortie-relative
	Budget      sim.Budget
	LockHealthy bool // sampled after supervision, before the reads
	Reads       int  // successful reads this tick across tags
	Health      Health
	Deployment  *sim.Deployment
	Tag         *tag.Tag
}

// MissionResult is the committed mission outcome.
type MissionResult struct {
	Sorties []SortieResult
	// Interrupted is true when the mission ended on a cancelled context
	// rather than completing its sortie count.
	Interrupted bool
	// LocX/LocY/LocOK carry the end-of-mission SAR localization of the
	// first tag, when the mission accumulated enough captures.
	LocX, LocY float64
	LocOK      bool
}

// CSV renders the result deterministically: byte-identical for
// byte-identical mission state, which is what the determinism and
// kill/resume tests diff.
func (r MissionResult) CSV() string {
	var b strings.Builder
	b.WriteString("sortie,start_tick,attempts,reads,read_rate_pct,relocks,resweeps,loss_events," +
		"recoveries,failed_recoveries,breaker_trips,battery_swaps,launch_relock_ticks,aborted," +
		"sar_points,mean_snr_db,elections,promotions,tag_reads\n")
	for _, s := range r.Sorties {
		rate := 0.0
		if s.Attempts > 0 {
			rate = 100 * float64(s.Reads) / float64(s.Attempts)
		}
		tr := make([]string, len(s.TagReads))
		for i, n := range s.TagReads {
			tr[i] = fmt.Sprintf("%d", n)
		}
		fmt.Fprintf(&b, "%d,%d,%d,%d,%.2f,%d,%d,%d,%d,%d,%d,%d,%d,%t,%d,%.3f,%d,%d,%s\n",
			s.Sortie, s.StartTick, s.Attempts, s.Reads, rate,
			s.Relocks, s.Resweeps, s.LossEvents, s.Recoveries, s.FailedRecoveries,
			s.BreakerTrips, s.BatterySwaps, s.LaunchRelockTicks, s.Aborted,
			s.SARPoints, s.MeanSNRdB, s.Elections, s.Promotions, strings.Join(tr, ";"))
	}
	if r.LocOK {
		fmt.Fprintf(&b, "# loc,%.4f,%.4f\n", r.LocX, r.LocY)
	}
	if r.Interrupted {
		b.WriteString("# interrupted\n")
	}
	return b.String()
}

// Engine runs a mission sortie by sortie. It is not safe for concurrent
// use.
type Engine struct {
	cfg Config
	// cfgHash is cfg.hash(), computed once: every checkpoint carries it.
	cfgHash uint64

	cur      int // committed sorties
	carry    Carryover
	results  []SortieResult
	tagReads []uint32 // cumulative per-tag inventory

	// solver is the streaming SAR accumulator: each sortie's disentangled
	// captures are integrated into the coarse grid at commit time, so the
	// end-of-mission solve is an argmax + refinement over an
	// already-populated grid instead of a full re-projection. Built once
	// in New for SAR missions (the search region derives from the relay
	// station, not post-hoc trajectory bounds, so it exists before the
	// first capture); nil otherwise. Feeding happens only at the sortie
	// commit — a rolled-back sortie must leave no trace in the grid.
	solver *loc.StreamSolver

	// capLog is the mission's columnar capture log: one CRC-sealed
	// segment per committed sortie that contributed SAR captures, each
	// record carrying the capture time, pose, disentangled IQ phase, SNR,
	// and lock flag. Sealed only at the sortie commit (a rolled-back
	// sortie stages records locally and discards them), so the log's
	// segments are exactly the batches the solver integrated — which is
	// what makes capture.Replay bit-identical to the live solve. Built
	// once in New for SAR missions; nil otherwise.
	capLog *capture.Log

	// src is the mission-level RNG stream; each sortie draws its build
	// seed from it, which is why its state must be checkpointed.
	src *rng.Source

	// Observer, when set, is called once per tick with read-only state.
	// It does not participate in determinism: the engine computes the
	// observation unconditionally whether or not anyone is watching.
	Observer func(TickObs)

	// CheckpointSink, when set, receives a snapshot after every sortie
	// commit: sortiesDone is the committed count and ckpt the exact bytes
	// Snapshot would return at that boundary. The fleet scheduler uses it
	// to publish mid-flight checkpoints for replication, reading
	// CaptureLog there to publish the capture log at the same boundary
	// (the capture log has committed the sortie by then); like Observer it
	// does not participate in determinism (encoding a snapshot reads, but
	// never advances, the mission streams).
	CheckpointSink func(sortiesDone int, ckpt []byte)

	// EstimateSink, when set, receives a live position estimate after
	// every sortie commit (following CheckpointSink). It fires only once
	// the accumulated aperture supports a solve — early sorties with too
	// few captures are silently skipped. Like Observer it does not
	// participate in determinism: the snapshot reads the accumulator
	// without consuming it.
	EstimateSink func(LiveEstimate)
}

// LiveEstimate is a mid-mission localization estimate published from the
// streaming accumulator at a sortie boundary.
type LiveEstimate struct {
	SortiesDone    int
	X, Y           float64
	SigmaX, SigmaY float64
	Peak           float64
	// Total/Kept account the aperture: captures integrated vs captures
	// surviving the robust lock rejection.
	Total, Kept int
}

// New validates cfg and builds an engine at the mission's start.
func New(cfg Config) (*Engine, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		cfgHash:  cfg.hash(),
		src:      rng.New(cfg.Seed).Split("mission"),
		tagReads: make([]uint32, len(cfg.Tags)),
		carry: Carryover{
			RelayPowered: true,
			RelayPos:     cfg.station(0),
		},
	}
	if cfg.SARPointsPerSortie > 0 {
		solver, err := loc.NewRobustStreamSolver(cfg.locConfig())
		if err != nil {
			return nil, fmt.Errorf("runtime: SAR accumulator: %w", err)
		}
		e.solver = solver
		e.capLog = capture.NewLog(cfg.captureHeader())
	}
	return e, nil
}

// locConfig is the mission's localizer configuration. The search region
// is fixed from the relay stations — each sortie's aperture is a ±1 m
// line through its station (apertureFlight), so the stations bound the
// trajectory the way the old post-hoc traj.Bounds() margins did — which
// lets the streaming accumulator allocate its grid before the first
// capture and keeps the lattice independent of OptiTrack noise in the
// flown points. Planned missions widen the box to every tour station;
// unplanned missions keep the single-station region bit-identical.
func (c Config) locConfig() loc.Config {
	lcfg := loc.DefaultConfig(c.ChannelHz)
	x0, y0 := c.station(0).X, c.station(0).Y
	x1, y1 := x0, y0
	for _, st := range c.PlanStations {
		x0, x1 = math.Min(x0, st.X), math.Max(x1, st.X)
		y0, y1 = math.Min(y0, st.Y), math.Max(y1, st.Y)
	}
	lcfg.Region = &loc.Region{X0: x0 - 5, Y0: y0 - 4, X1: x1 + 5, Y1: y1 + 6}
	return lcfg
}

// captureHeader is the capture log's provenance header: the carrier and
// search region the live solve uses, plus the seed and config hash, so a
// replay rebuilds the exact localizer configuration from the log alone.
func (c Config) captureHeader() capture.Header {
	return capture.Header{
		ChannelHz:  c.ChannelHz,
		Region:     *c.locConfig().Region,
		Seed:       c.Seed,
		ConfigHash: c.hash(),
	}
}

// Config returns the engine's (defaulted) mission config.
func (e *Engine) Config() Config { return e.cfg }

// CaptureLog returns a snapshot of the mission's capture log bytes —
// self-describing, replayable with capture.Replay — or nil for missions
// without SAR.
func (e *Engine) CaptureLog() []byte {
	if e.capLog == nil {
		return nil
	}
	return e.capLog.Snapshot()
}

// SortiesDone returns how many sorties have committed.
func (e *Engine) SortiesDone() int { return e.cur }

// Clock returns the global mission tick at the last commit boundary.
func (e *Engine) Clock() int64 { return int64(e.cur) * int64(e.cfg.TicksPerSortie) }

// buildDeployment rebuilds sortie state from the config and a sortie
// seed, then applies the carryover. The relay's isolation is measured
// once per mission, in its first sortie; every later sortie — and every
// sortie after a Restore — installs the carried isolation and gain plan
// instead of measuring again.
func (e *Engine) buildDeployment(seed uint64) (*sim.Deployment, []*tag.Tag) {
	var cal *sim.Calibration
	if e.carry.HasIso {
		cal = &sim.Calibration{Iso: e.carry.Iso, Gains: e.carry.Gains}
	}
	d := sim.New(sim.Config{
		Scene:         world.Corridor(e.cfg.CorridorLengthM, e.cfg.CorridorWidthM),
		ReaderPos:     e.cfg.ReaderPos,
		UseRelay:      true,
		RelayPos:      e.cfg.station(e.cur),
		ShadowSigmaDB: e.cfg.ShadowSigmaDB,
		Calibration:   cal,
	}, seed)
	tags := make([]*tag.Tag, len(e.cfg.Tags))
	for i, ts := range e.cfg.Tags {
		tags[i] = d.AddTag(epc.NewEPC96(ts.ID, 0xD0, 0, 0, 0, 0), geom.P(ts.X, ts.Y, ts.Z))
	}
	e.applyCarryover(d)
	return d, tags
}

// applyCarryover restores persistent damage and pose onto a freshly
// built deployment.
func (e *Engine) applyCarryover(d *sim.Deployment) {
	c := e.carry
	d.SetReaderCarrierHz(c.ReaderHopHz)
	if c.HasIso {
		d.Relay.SetAntennaIsolationDB(c.AntennaIsoDB)
	}
	if c.RelayLocked {
		d.Relay.Lock(c.RelayReaderFreq)
		if c.RelayCFOHz != 0 {
			d.Relay.ApplyCFO(c.RelayCFOHz)
		}
	} else {
		d.Relay.Unlock()
	}
	// Power state last: SetRelayPowered(false) drops the lock, matching
	// the brown-out semantics for a relay that ended its sortie dark.
	d.SetRelayPowered(c.RelayPowered)
	// Launch from where the last sortie left the airframe, but keep the
	// plan position — this sortie's station, for planned missions — as the
	// station-keeping target.
	d.RelayPos = c.RelayPos
	if d.EmbeddedTag != nil {
		d.EmbeddedTag.Pos = c.RelayPos
	}
	d.RelayPlanPos = e.cfg.station(e.cur)
}

// extractCarryover captures the persistent state at sortie end.
func (e *Engine) extractCarryover(d *sim.Deployment) Carryover {
	return Carryover{
		RelayPowered:    d.RelayPowered(),
		RelayLocked:     d.Relay.Locked(),
		RelayReaderFreq: d.Relay.ReaderFreq(),
		RelayCFOHz:      d.Relay.CFOHz(),
		ReaderHopHz:     d.ReaderCarrierHz(),
		AntennaIsoDB:    d.Relay.AntennaIsolationDB(),
		HasIso:          true,
		Iso:             d.Iso,
		Gains:           d.Gains,
		RelayPos:        d.RelayPos,
	}
}

// clipSchedule selects the events whose start falls inside the sortie
// window [base, base+ticks) and rebases them to sortie-relative time.
// Revertible windows are clipped to the sortie: the landing ends the
// cause. Events from earlier windows are NOT re-applied — persistent
// damage crosses the boundary via the Carryover, and revertible causes
// died with the landing.
func clipSchedule(s fault.Schedule, base, ticks int) fault.Schedule {
	var out fault.Schedule
	for _, ev := range s.Events {
		if ev.Start < base || ev.Start >= base+ticks {
			continue
		}
		rel := ev
		rel.Start = ev.Start - base
		if rel.Duration > 0 && rel.Start+rel.Duration > ticks {
			rel.Duration = ticks - rel.Start
		}
		out.Events = append(out.Events, rel)
	}
	return out
}

// RunSortie executes the next sortie and commits it. On a cancelled
// context nothing commits: the engine (including its RNG stream) is
// rolled back to the sortie boundary, so a later RunSortie — or a resume
// from the last checkpoint — replays the sortie bit-identically.
//
// When ctx carries an obs recorder the sortie runs under a
// "runtime.sortie" span that parents every re-lock, escalation, read,
// and SAR span below it, and the whole sortie executes under
// runtime/pprof labels so CPU profiles attribute samples to the stage.
// Spans never touch the deterministic RNG streams: tracing a mission
// cannot change its bits.
func (e *Engine) RunSortie(ctx context.Context) (SortieResult, error) {
	sctx, span := obs.StartSpan(ctx, "runtime.sortie")
	span.Int("sortie", int64(e.cur))
	var res SortieResult
	var err error
	obs.Labeled(sctx, func(sctx context.Context) {
		res, err = e.runSortie(sctx)
	}, "rfly_stage", "sortie")
	span.Bool("aborted", res.Aborted).
		Int("reads", int64(res.Reads)).
		Int("relocks", int64(res.Relocks)).
		Int("sar_points", int64(res.SARPoints))
	span.End()
	// The sink fires outside the sortie span, on the outer context: the
	// checkpoint span it records interleaves with — never overlaps — the
	// sortie spans, exactly like a caller-driven boundary snapshot.
	if err == nil && e.CheckpointSink != nil {
		e.CheckpointSink(e.cur, e.SnapshotCtx(ctx))
	}
	if err == nil && e.EstimateSink != nil {
		if est, ok := e.LiveEstimateCtx(ctx); ok {
			e.EstimateSink(est)
		}
	}
	return res, err
}

// LiveEstimateCtx snapshots the streaming accumulator into a mid-mission
// position estimate. ok is false when the mission carries no SAR
// accumulator or the aperture committed so far cannot support a solve
// (too few captures, everything rejected, no peak). The snapshot reads
// the grid without consuming it, so calling this any number of times —
// or never — leaves the mission bits unchanged.
func (e *Engine) LiveEstimateCtx(ctx context.Context) (LiveEstimate, bool) {
	if e.solver == nil {
		return LiveEstimate{}, false
	}
	snap, err := e.solver.Snapshot(ctx)
	if err != nil {
		return LiveEstimate{}, false
	}
	// A solve without finite confidence is not an estimate (and ±Inf
	// would poison JSON consumers downstream).
	if math.IsInf(snap.SigmaX, 0) || math.IsNaN(snap.SigmaX) ||
		math.IsInf(snap.SigmaY, 0) || math.IsNaN(snap.SigmaY) {
		return LiveEstimate{}, false
	}
	return LiveEstimate{
		SortiesDone: e.cur,
		X:           snap.Location.X,
		Y:           snap.Location.Y,
		SigmaX:      snap.SigmaX,
		SigmaY:      snap.SigmaY,
		Peak:        snap.Peak,
		Total:       snap.Total,
		Kept:        snap.Kept,
	}, true
}

// sortie is one sortie's working state, threaded through the stages of
// runSortie. The stages before commit write only here, never to the
// engine, so a failed sortie has nothing to undo but the RNG draw.
type sortie struct {
	seed  uint64 // build seed, drawn from the mission stream
	base  int    // global tick of the sortie's first tick
	d     *sim.Deployment
	tags  []*tag.Tag
	coord *swarm.Coordinator // nil for single-relay missions
	wd    *relay.Watchdog
	inj   *fault.Injector
	sup   *Supervisor
	res   SortieResult

	// In-loop aperture (swarm SAR missions): ticks from sarStart on steer
	// along flight, and their raw captures buffer here until the SAR
	// stage disentangles them.
	sarStart        int
	flight          drone.Flight
	capTgt, capEmb  []loc.Measurement
	capSNR, capTick []float64

	// The SAR stage's output, staged until commit: the disentangled
	// captures the solver folds and the records the capture log seals.
	newSAR  []loc.Measurement
	pending []capture.Record
}

// runSortie flies the next sortie through its stages — prepare, launch
// relock, tick loop, SAR capture — and commits it. A stage error rolls
// the mission RNG back to the sortie boundary, so a later RunSortie (or a
// resume) replays the sortie bit-identically.
func (e *Engine) runSortie(ctx context.Context) (_ SortieResult, err error) {
	if e.cur >= e.cfg.Sorties {
		return SortieResult{}, fmt.Errorf("runtime: mission already complete (%d sorties)", e.cur)
	}
	srcMark := e.src.Snapshot()
	defer func() {
		if err != nil {
			// The one rollback: rewind the mission RNG to the boundary (a
			// live stream's snapshot always restores, so the error is nil).
			e.src, _ = rng.Restore(srcMark)
		}
	}()
	s, err := e.prepareSortie(ctx, e.src.Uint64())
	if err != nil {
		return SortieResult{}, err
	}
	if err := e.launchRelock(ctx, s); err != nil {
		return SortieResult{}, err
	}
	if err := e.flyTicks(ctx, s); err != nil {
		return SortieResult{}, err
	}
	if err := e.captureSAR(ctx, s); err != nil {
		return SortieResult{}, err
	}
	return e.commit(ctx, s), nil
}

// prepareSortie builds the sortie from its seed: the deployment with the
// carryover applied, the relay supervision (a swarm coordinator or a
// lone watchdog), the fault injector clipped to the sortie window, the
// escalation supervisor, and for swarm SAR missions the aperture flight.
func (e *Engine) prepareSortie(ctx context.Context, seed uint64) (*sortie, error) {
	d, tags := e.buildDeployment(seed)
	base := e.cur * e.cfg.TicksPerSortie
	s := &sortie{seed: seed, base: base, d: d, tags: tags, sarStart: e.cfg.TicksPerSortie + 1,
		res: SortieResult{Sortie: e.cur, StartTick: int64(base), TagReads: make([]uint32, len(tags)), MeanSNRdB: math.NaN()}}
	var injTarget fault.Target = d
	var err error
	if e.cfg.Swarm.Enabled() {
		// The coordinator replaces the deployment's relay with the elected
		// primary's hardware; its member builds draw only from named splits
		// of the deployment stream, so non-swarm missions are unperturbed.
		// It absorbs the swarm-directed fault classes and passes everything
		// else through to the deployment.
		if s.coord, err = swarm.NewCoordinator(ctx, e.cfg.Swarm, d, e.carry.Swarm, e.cfg.Seed); err != nil {
			return nil, err
		}
		s.wd = s.coord.PrimaryWatchdog()
		injTarget = s.coord
	} else if s.wd, err = relay.NewWatchdog(d.Relay, relay.WatchdogConfig{}); err != nil {
		return nil, err
	}
	if s.inj, err = fault.NewInjector(clipSchedule(e.cfg.Schedule, s.base, e.cfg.TicksPerSortie), injTarget); err != nil {
		return nil, err
	}
	s.sup = NewSupervisor(e.cfg.Supervisor)
	if s.coord != nil {
		s.sup.Failover = s.coord
	}

	// Swarm missions fly the SAR aperture INSIDE the tick loop: the last
	// SARPointsPerSortie ticks are capture ticks. That puts the capture
	// under the supervisor's escalation ladder — a relay killed mid-
	// aperture hands off to a shadow and the buffer keeps filling — which
	// the end-of-sortie pass (kept for non-swarm missions, bit-identical)
	// cannot do.
	if s.coord != nil && e.cfg.SARPointsPerSortie > 0 {
		s.sarStart = e.cfg.TicksPerSortie - e.cfg.SARPointsPerSortie
		if s.flight, err = e.apertureFlight(ctx, seed); err != nil {
			return nil, err
		}
		s.coord.OnHandoff = func(h *swarm.HandoffRecord) { h.SARCaptured = len(s.capTgt) }
	}
	return s, nil
}

// launchRelock is the launch checklist: a powered relay that came back
// unlocked from the previous sortie gets a bounded re-acquisition window
// before the clock starts burning read attempts.
func (e *Engine) launchRelock(ctx context.Context, s *sortie) error {
	if !s.d.RelayPowered() || s.d.RelayLockHealthy() {
		return nil
	}
	lctx, span := obs.StartSpan(ctx, "runtime.launch_relock")
	n, _ := s.wd.AwaitLock(lctx, s.d, s.sup.Cfg.RelockTicks)
	s.res.LaunchRelockTicks = n
	span.Int("ticks", int64(n)).Bool("locked", s.d.RelayLockHealthy())
	span.End()
	return ctx.Err()
}

// flyTicks is the sortie's tick loop: fault injection, swarm and
// supervisor ticks, the link budget, in-loop aperture captures, and one
// read attempt per tag. A supervisor abort ends the loop early (the
// sortie still commits); a cancelled ctx fails it.
func (e *Engine) flyTicks(ctx context.Context, s *sortie) error {
	d, res := s.d, &s.res
	var snrSum float64
	var snrN int
	for tick := 0; tick < e.cfg.TicksPerSortie; tick++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("runtime: sortie %d cancelled at tick %d: %w", res.Sortie, tick, err)
		}
		// Aperture ticks steer the relay along the planned SAR flight;
		// OptiTrack drop-outs shorten the flight, so out-of-range ticks
		// hover in place.
		sarIdx := -1
		if tick >= s.sarStart && tick-s.sarStart < len(s.flight.True) {
			sarIdx = tick - s.sarStart
			d.MoveRelay(s.flight.True[sarIdx])
		}
		s.inj.Step()
		if s.coord != nil {
			s.coord.TickCtx(ctx)
		}
		h := s.sup.TickCtx(ctx, d, s.wd, e.cfg.SwapDelayTicks, e.cfg.StationKeepStepM)
		if h.Abort {
			res.Aborted = true
			break
		}
		// One supervision budget per tick, unconditionally: it feeds the
		// observer's invariant checks and the SNR telemetry, and being
		// unconditional keeps the deterministic stream identical whether
		// or not anyone observes.
		bud := d.LinkBudget(s.tags[0])
		if !math.IsInf(bud.SNRdB, -1) && !math.IsNaN(bud.SNRdB) {
			snrSum += bud.SNRdB
			snrN++
		}
		lockForReads := d.RelayLockHealthy()
		if sarIdx >= 0 {
			if mT, mE, snr, ok := d.CaptureSARPoint(s.tags[0], s.flight.Measured[sarIdx]); ok {
				s.capTgt = append(s.capTgt, mT)
				s.capEmb = append(s.capEmb, mE)
				s.capSNR = append(s.capSNR, snr)
				s.capTick = append(s.capTick, float64(s.base+tick))
			}
		}
		reads := 0
		for ti, tg := range s.tags {
			res.Attempts++
			ok, err := d.ReadAttemptRetryCtx(ctx, tg, e.cfg.Retry, nil)
			if ok {
				res.Reads++
				res.TagReads[ti]++
				reads++
			}
			if err != nil {
				return fmt.Errorf("runtime: sortie %d reads cancelled: %w", res.Sortie, err)
			}
		}
		if e.Observer != nil {
			e.Observer(TickObs{
				Clock:       int64(s.base + tick),
				Sortie:      res.Sortie,
				Tick:        tick,
				Budget:      bud,
				LockHealthy: lockForReads,
				Reads:       reads,
				Health:      h,
				Deployment:  d,
				Tag:         s.tags[0],
			})
		}
	}
	if snrN > 0 {
		res.MeanSNRdB = snrSum / float64(snrN)
	}
	return nil
}

// captureSAR is the sortie's SAR stage, skipped for an aborted sortie
// (the drone went straight home). Single-relay missions fly the
// end-of-sortie pass; swarm missions already captured in-loop and
// disentangle whatever the (possibly handed-off) buffer holds. The
// captures and their log records are staged on s and sealed only at
// commit: a rolled-back sortie leaves no trace in the solver grid or
// the capture log.
func (e *Engine) captureSAR(ctx context.Context, s *sortie) error {
	switch {
	case s.res.Aborted:
	case s.coord == nil && e.cfg.SARPointsPerSortie > 0:
		cap, err := e.landingPass(ctx, s.d, s.tags[0], s.seed)
		if err != nil {
			// A dark flight contributes nothing and the mission continues;
			// only a cancelled ctx fails the sortie.
			if ctx.Err() != nil {
				return err
			}
			return nil
		}
		// The end-of-sortie pass flies in the landing window after the
		// last tick and keeps no per-point budget, so the records carry
		// fractional landing-window times and the pass's mean SNR.
		n := e.cfg.SARPointsPerSortie
		s.newSAR = cap.Disentangled
		s.pending = make([]capture.Record, len(cap.Disentangled))
		for j, m := range cap.Disentangled {
			s.pending[j] = capture.Record{
				T:   float64(s.base+e.cfg.TicksPerSortie) + float64(j)/float64(n+1),
				Pos: m.Pos, H: m.H, SNRdB: cap.MeanSNRdB, Unlocked: m.Unlocked,
			}
		}
	case len(s.capTgt) > 0:
		dis, err := sim.DisentangleCapture(s.capTgt, s.capEmb)
		if err != nil {
			return nil
		}
		// In-loop aperture ticks know their exact capture tick and
		// per-point SNR; the record carries both.
		s.newSAR = dis
		s.pending = make([]capture.Record, len(dis))
		for j, m := range dis {
			s.pending[j] = capture.Record{
				T: s.capTick[j], Pos: m.Pos, H: m.H,
				SNRdB: s.capSNR[j], Unlocked: m.Unlocked,
			}
		}
	}
	s.res.SARPoints = len(s.newSAR)
	return nil
}

// commit folds the sortie into the engine: the supervision counters into
// its result, then carryover, cumulative inventory, the staged SAR
// captures and the cursor.
func (e *Engine) commit(ctx context.Context, s *sortie) SortieResult {
	res := s.res
	ws := s.wd.Stats()
	if s.coord != nil {
		// Fleet-wide watchdog activity: the shadows' re-sweeps count too.
		ws = s.coord.WatchdogStats()
		res.Elections, res.Promotions = s.coord.Counts()
		res.Handoffs = append([]swarm.HandoffRecord(nil), s.coord.Handoffs()...)
	}
	ss := s.sup.Stats()
	res.Relocks = ws.Relocks
	res.Resweeps = ws.Resweeps
	res.LossEvents = ws.LossEvents
	res.Recoveries = ss.Recoveries
	res.FailedRecoveries = ss.FailedTicks
	res.BreakerTrips = ss.BreakerTrips
	res.BatterySwaps = ss.BatterySwaps

	// The landing between sorties swaps the battery, so a dark relay
	// comes back powered (and unlocked — PLLs lose state in a brown-out).
	carry := e.extractCarryover(s.d)
	if !carry.RelayPowered {
		carry.RelayPowered = true
		carry.RelayLocked = false
	}
	if s.coord != nil {
		st := s.coord.State()
		st.LandAndSwap()
		carry.Swarm = st
	}
	e.carry = carry
	for i, n := range res.TagReads {
		e.tagReads[i] += n
	}
	if e.solver != nil && len(s.newSAR) > 0 {
		// Integrate the committed captures into the streaming grid. Batch
		// boundaries do not affect the bits (cells accumulate in
		// measurement order either way), so the grid always equals a
		// single batch solve over the capture log's records — the
		// invariant the checkpoint codec and ResultCtx rely on. AddBatch
		// integrates whole even on a cancelled ctx, so a commit can never
		// be half-applied.
		e.solver.AddBatch(ctx, s.newSAR)
	}
	if e.capLog != nil && len(s.pending) > 0 {
		// Seal the sortie's capture segment. The segment boundary IS the
		// solver's batch boundary, so a replay of the log re-feeds the
		// stream exactly as the live mission did.
		e.capLog.AppendSegmentCtx(ctx, e.cur+1, s.pending)
	}
	e.results = append(e.results, res)
	e.cur++
	return res
}

// landingPass is the end-of-sortie SAR pass ("runtime.sar_pass"): it
// flies a short aperture line through the relay's plan position and
// captures the first tag's disentangled channels.
func (e *Engine) landingPass(ctx context.Context, d *sim.Deployment, tg *tag.Tag, sortieSeed uint64) (*sim.SARCapture, error) {
	ctx, span := obs.StartSpan(ctx, "runtime.sar_pass")
	defer span.End()
	flight, err := e.apertureFlight(ctx, sortieSeed)
	if err != nil {
		return nil, err
	}
	return d.CollectSARCtx(ctx, flight, tg, nil)
}

// apertureFlight plans and flies the sortie's aperture line (a ±1 m pass
// through the sortie's relay station). The flight draws from the same
// named split of the sortie seed whether the capture happens
// end-of-sortie or in-loop, so both capture paths see identical
// trajectories.
func (e *Engine) apertureFlight(ctx context.Context, sortieSeed uint64) (drone.Flight, error) {
	n := e.cfg.SARPointsPerSortie
	st := e.cfg.station(e.cur)
	p0 := geom.P(st.X-1.0, st.Y, st.Z)
	p1 := geom.P(st.X+1.0, st.Y, st.Z)
	plan := geom.Line(p0, p1, n)
	fsrc := rng.New(sortieSeed).Split("sar-flight")
	return drone.Bebop2().FlyCtx(ctx, plan, drone.DefaultOptiTrack(), fsrc)
}

// RunSorties runs up to n further sorties, stopping early on a cancelled
// context or a supervisor-reported unrecoverable error.
func (e *Engine) RunSorties(ctx context.Context, n int) error {
	for i := 0; i < n && e.cur < e.cfg.Sorties; i++ {
		if _, err := e.RunSortie(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the remaining sorties and assembles the mission result.
// A cancelled context yields the committed prefix with Interrupted set,
// alongside the error — the caller decides whether a partial mission is
// usable (the CLI flushes a final checkpoint and exits non-zero).
func (e *Engine) Run(ctx context.Context) (MissionResult, error) {
	err := e.RunSorties(ctx, e.cfg.Sorties-e.cur)
	// A completed mission lets the live deadline bound the end-of-mission
	// solve too; an interrupted one assembles from the committed prefix
	// under a background context, so the partial result (and its CSV) is
	// identical to what a resume-from-checkpoint would report.
	resCtx := ctx
	if err != nil {
		resCtx = context.Background()
	}
	res := e.ResultCtx(resCtx)
	res.Interrupted = err != nil
	return res, err
}

// ResultCtx assembles the mission result from the committed sorties and
// finalizes the streaming SAR solve when the mission flew one. The grid
// already integrates every committed capture, so the end-of-mission solve
// is argmax + refinement — the per-measurement projection cost was paid
// sortie by sortie. When the final sortie's live estimate already
// snapshotted the same captures, the solver returns that memoized solve
// and no refinement runs here at all. A localization abandoned by ctx, or
// one the aperture cannot support, leaves LocOK false; the committed
// sortie rows are assembled regardless, because they are bookkeeping, not
// compute.
func (e *Engine) ResultCtx(ctx context.Context) MissionResult {
	res := MissionResult{Sorties: append([]SortieResult(nil), e.results...)}
	if e.solver != nil && len(e.cfg.Tags) > 0 {
		obs.Labeled(ctx, func(ctx context.Context) {
			if lr, err := e.solver.Snapshot(ctx); err == nil {
				res.LocX, res.LocY = lr.Location.X, lr.Location.Y
				res.LocOK = true
			}
		}, "rfly_stage", "sar-solve")
	}
	return res
}

// TagReads returns the cumulative per-tag inventory counts.
func (e *Engine) TagReads() []uint32 { return append([]uint32(nil), e.tagReads...) }
