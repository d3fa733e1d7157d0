package runtime

import (
	"context"

	"rfly/internal/obs"
	"rfly/internal/relay"
	"rfly/internal/sim"
)

// The supervisor is the mission's health authority: every tick it probes
// the relay link, and when the link is sick it climbs an escalation
// ladder — MAC retry is already inherent in the read path, so the ladder
// here starts at re-lock (one watchdog tick), then replan (battery swap,
// station-keeping, gain reprogramming), then abort-and-report. A circuit
// breaker sits across the recovery actions: after too many consecutive
// failed recovery ticks it opens and stops burning the mission clock on
// a link that is not coming back, cools down, then half-opens to probe
// once. Tripping the breaker too many times in one sortie is the abort
// signal — the sortie lands and reports rather than hovering dark.

// SupervisorConfig tunes the escalation policy and the breaker.
type SupervisorConfig struct {
	// RelockTicks is the launch-checklist budget: how many watchdog ticks
	// the supervisor waits for a carrier lock at sortie start before
	// flying anyway and letting per-tick recovery fight it out.
	RelockTicks int
	// MaxRecoveryFailures is how many consecutive failed recovery ticks
	// open the breaker.
	MaxRecoveryFailures int
	// CooldownTicks is how long an open breaker blocks recovery before
	// half-opening for a single probe.
	CooldownTicks int
	// MaxBreakerTrips is how many breaker openings one sortie tolerates
	// before the supervisor orders an abort.
	MaxBreakerTrips int
}

// DefaultSupervisorConfig matches the fault experiments' tick scale.
func DefaultSupervisorConfig() SupervisorConfig {
	return SupervisorConfig{
		RelockTicks:         12,
		MaxRecoveryFailures: 6,
		CooldownTicks:       6,
		MaxBreakerTrips:     3,
	}
}

func (c *SupervisorConfig) defaults() {
	d := DefaultSupervisorConfig()
	if c.RelockTicks <= 0 {
		c.RelockTicks = d.RelockTicks
	}
	if c.MaxRecoveryFailures <= 0 {
		c.MaxRecoveryFailures = d.MaxRecoveryFailures
	}
	if c.CooldownTicks <= 0 {
		c.CooldownTicks = d.CooldownTicks
	}
	if c.MaxBreakerTrips <= 0 {
		c.MaxBreakerTrips = d.MaxBreakerTrips
	}
}

// BreakerState is the relay-link circuit breaker's position.
type BreakerState uint8

const (
	// BreakerClosed: recovery runs every unhealthy tick.
	BreakerClosed BreakerState = iota
	// BreakerOpen: recovery is suspended for the cooldown.
	BreakerOpen
	// BreakerHalfOpen: one probe recovery is allowed; success closes the
	// breaker, failure re-opens it.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "breaker(?)"
	}
}

type breaker struct {
	state    BreakerState
	fails    int // consecutive failed recovery ticks while closed/half-open
	cooldown int
	trips    int
}

func (b *breaker) onSuccess() {
	b.state = BreakerClosed
	b.fails = 0
}

func (b *breaker) onFailure(cfg SupervisorConfig) {
	b.fails++
	if b.state == BreakerHalfOpen || b.fails >= cfg.MaxRecoveryFailures {
		b.state = BreakerOpen
		b.cooldown = cfg.CooldownTicks
		b.fails = 0
		b.trips++
	}
}

// Health is one tick's probe outcome, after any recovery ran.
type Health struct {
	// The four probes, sampled before recovery.
	Powered     bool
	LockHealthy bool
	PlanStable  bool
	OnStation   bool
	// Healthy is the conjunction of the probes.
	Healthy bool
	// Recovered reports that this tick's recovery actions restored a sick
	// link.
	Recovered bool
	// Breaker is the breaker's position after this tick.
	Breaker BreakerState
	// Abort is the supervisor's order to end the sortie: the breaker
	// tripped past its per-sortie budget.
	Abort bool
}

// SupervisorStats aggregates one sortie's supervision activity.
type SupervisorStats struct {
	UnhealthyTicks int
	Recoveries     int // recovery ticks that restored the link
	FailedTicks    int // recovery ticks that did not
	SkippedTicks   int // unhealthy ticks the open breaker sat out
	BreakerTrips   int
	BatterySwaps   int
}

// FailoverAuthority is the swarm coordinator's face to the supervisor:
// an extra escalation rung that can replace the serving relay outright.
// The supervisor consults it when the relay's supply is lost — lock
// trouble on a live airframe stays with the watchdog rung.
type FailoverAuthority interface {
	// FailoverCtx promotes a standby if one is eligible, reporting
	// whether the primaryship moved.
	FailoverCtx(ctx context.Context) bool
	// PrimaryWatchdog returns the watchdog bound to the CURRENT primary,
	// so the re-lock rung always drives the relay that is serving.
	PrimaryWatchdog() *relay.Watchdog
	// PrimaryAlive reports whether the serving airframe still exists; a
	// battery swap on a destroyed one is forbidden.
	PrimaryAlive() bool
}

// Supervisor drives one sortie's escalation policy. It is rebuilt fresh
// each sortie (the landing between sorties resets the link), so none of
// its state needs checkpointing.
type Supervisor struct {
	Cfg SupervisorConfig

	// Failover, when set (swarm missions), adds a promotion rung to the
	// escalation ladder and lets the ladder follow the primaryship.
	Failover FailoverAuthority

	brk      breaker
	sagTicks int
	stats    SupervisorStats
}

// NewSupervisor builds a supervisor, filling zero config fields from
// DefaultSupervisorConfig.
func NewSupervisor(cfg SupervisorConfig) *Supervisor {
	cfg.defaults()
	return &Supervisor{Cfg: cfg}
}

// Stats returns the sortie's supervision counters.
func (s *Supervisor) Stats() SupervisorStats { return s.stats }

// probe samples the four health probes.
func (s *Supervisor) probe(d *sim.Deployment) Health {
	h := Health{
		Powered:     d.RelayPowered(),
		LockHealthy: d.RelayLockHealthy(),
		PlanStable:  d.RelayPlanStable(),
		OnStation:   d.RelayPos.Dist(d.RelayPlanPos) < 1e-6,
	}
	h.Healthy = h.Powered && h.LockHealthy && h.PlanStable && h.OnStation
	return h
}

// TickCtx runs one supervision step: probe, and if the link is sick,
// climb the ladder subject to the breaker. swapDelayTicks and
// stationKeepStepM come from the mission config (they are properties of
// the airframe and ground crew, not of the escalation policy). Every
// unhealthy tick that reaches the escalation ladder records a
// "runtime.escalation" span (nested under the sortie span when the
// engine is being traced) covering the recovery rungs, with the probe
// state and outcome as attributes.
func (s *Supervisor) TickCtx(ctx context.Context, d *sim.Deployment, wd *relay.Watchdog, swapDelayTicks int, stationKeepStepM float64) Health {
	h := s.probe(d)
	if h.Healthy {
		s.brk.onSuccess()
		s.sagTicks = 0
		h.Breaker = s.brk.state
		return h
	}
	s.stats.UnhealthyTicks++

	if s.brk.state == BreakerOpen {
		s.brk.cooldown--
		if s.brk.cooldown <= 0 {
			s.brk.state = BreakerHalfOpen
		}
		s.stats.SkippedTicks++
		h.Breaker = s.brk.state
		return h
	}

	// Escalation: failover (swarm), battery swap (mission-level), re-lock
	// (watchdog), replan (station-keep + gain reprogramming). Each
	// unhealthy tick advances every rung that applies — the rungs act on
	// disjoint state, so running them together costs nothing and recovers
	// fastest.
	ctx, esc := obs.StartSpan(ctx, "runtime.escalation")
	esc.Bool("powered", h.Powered).Bool("lock_healthy", h.LockHealthy).
		Bool("plan_stable", h.PlanStable).Bool("on_station", h.OnStation)
	if s.Failover != nil {
		if !d.RelayPowered() {
			s.Failover.FailoverCtx(ctx)
		}
		// The promotion may have moved the primaryship; follow it.
		wd = s.Failover.PrimaryWatchdog()
	}
	if !d.RelayPowered() && (s.Failover == nil || s.Failover.PrimaryAlive()) {
		s.sagTicks++
		if s.sagTicks >= swapDelayTicks {
			d.SetRelayPowered(true)
			s.sagTicks = 0
			s.stats.BatterySwaps++
		}
	}
	wd.TickCtx(ctx, d)
	d.StationKeep(stationKeepStepM)
	if !d.RelayPlanStable() {
		d.ReprogramGains()
	}

	after := s.probe(d)
	if after.Healthy {
		h.Recovered = true
		s.stats.Recoveries++
		s.brk.onSuccess()
	} else {
		s.stats.FailedTicks++
		s.brk.onFailure(s.Cfg)
		if s.brk.trips > s.stats.BreakerTrips {
			s.stats.BreakerTrips = s.brk.trips
		}
		if s.brk.trips >= s.Cfg.MaxBreakerTrips {
			h.Abort = true
		}
	}
	h.Breaker = s.brk.state
	esc.Bool("recovered", h.Recovered).Bool("abort", h.Abort).Str("breaker", h.Breaker.String())
	esc.End()
	return h
}
