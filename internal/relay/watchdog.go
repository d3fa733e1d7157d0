package relay

import (
	"context"
	"fmt"

	"rfly/internal/obs"
	"rfly/internal/signal"
)

// Watchdog telemetry in the process-wide registry; cached so a tick
// costs one atomic add, not a map lookup.
var (
	mLossEvents = obs.Default().Counter("relay_loss_events_total")
	mResweeps   = obs.Default().Counter("relay_resweeps_total")
	mRelocks    = obs.Default().Counter("relay_relocks_total")
)

// CarrierSense abstracts "what does the relay's front end hear right
// now?" for the watchdog. The waveform simulation implements it by
// handing captures to the Eq. 5 energy detector (WaveformSense); the
// link-budget simulation implements it analytically from geometry
// (sim.Deployment.CarrierSense).
type CarrierSense interface {
	// Sense returns the strongest carrier the relay can currently detect
	// (offset Hz from band center) and its received power in dBm. When
	// nothing is detectable it returns ok = false.
	Sense() (freq float64, powerDBm float64, ok bool)
}

// WatchdogConfig tunes the loss-of-lock detector and its re-sweep
// backoff. The zero value is replaced by DefaultWatchdogConfig in
// NewWatchdog.
type WatchdogConfig struct {
	// ThresholdDBm is the minimum sensed carrier power that counts as
	// "the reader is still there". The paper's relay hears the reader at
	// tens of dBm above thermal noise; −80 dBm leaves a wide margin while
	// rejecting the noise floor.
	ThresholdDBm float64
	// LossTicks is how many consecutive failed senses declare loss of
	// lock (debounce: one corrupted capture must not drop a good lock).
	LossTicks int
	// BaseBackoffTicks and MaxBackoffTicks bound the exponential backoff
	// between re-sweep attempts: after each failed re-sweep the watchdog
	// waits twice as long, up to the cap, so a relay over a dead zone
	// does not burn its battery sweeping every tick.
	BaseBackoffTicks int
	MaxBackoffTicks  int
	// MaxCFOHz is the largest LO drift the lock tolerates before the
	// watchdog treats the carrier as lost even though energy is present:
	// past this the baseband falls outside the analog filters (the LPF
	// cutoff) and the forwarded link is dark regardless of sensed power.
	MaxCFOHz float64
}

// DefaultWatchdogConfig returns thresholds matched to the default relay
// design: loss declared after 2 bad ticks, backoff 1→2→4… capped at 8,
// and a CFO tolerance equal to the downlink LPF cutoff.
func DefaultWatchdogConfig() WatchdogConfig {
	return WatchdogConfig{
		ThresholdDBm:     -80,
		LossTicks:        2,
		BaseBackoffTicks: 1,
		MaxBackoffTicks:  8,
		MaxCFOHz:         DefaultConfig().LPFCutoff,
	}
}

// WatchdogStats counts what the watchdog did, for the fault experiments'
// bookkeeping.
type WatchdogStats struct {
	LossEvents int // distinct losses of lock declared
	Resweeps   int // re-sweep attempts issued
	Relocks    int // re-sweeps that re-acquired a carrier
}

// Watchdog supervises one relay's carrier lock: it watches the energy
// detector every tick, declares loss of lock after LossTicks consecutive
// misses (or when accumulated CFO pushes the baseband out of the
// filters), drops the relay's lock, and re-sweeps with bounded
// exponential backoff until a carrier is found again. This is the
// recovery half of the fault subsystem's relay story — the injector
// breaks the lock, the watchdog earns it back.
type Watchdog struct {
	Cfg WatchdogConfig

	relay *Relay
	stats WatchdogStats

	badTicks    int // consecutive failed senses while locked
	backoff     int // current backoff interval (0 = not in backoff)
	coolDown    int // ticks remaining before the next re-sweep attempt
	lostCurrent bool
}

// NewWatchdog builds a watchdog over a relay, filling zero config fields
// from DefaultWatchdogConfig.
func NewWatchdog(r *Relay, cfg WatchdogConfig) (*Watchdog, error) {
	if r == nil {
		return nil, fmt.Errorf("relay: watchdog needs a relay")
	}
	def := DefaultWatchdogConfig()
	if cfg.ThresholdDBm == 0 {
		cfg.ThresholdDBm = def.ThresholdDBm
	}
	if cfg.LossTicks <= 0 {
		cfg.LossTicks = def.LossTicks
	}
	if cfg.BaseBackoffTicks <= 0 {
		cfg.BaseBackoffTicks = def.BaseBackoffTicks
	}
	if cfg.MaxBackoffTicks <= 0 {
		cfg.MaxBackoffTicks = def.MaxBackoffTicks
	}
	if cfg.MaxBackoffTicks < cfg.BaseBackoffTicks {
		cfg.MaxBackoffTicks = cfg.BaseBackoffTicks
	}
	if cfg.MaxCFOHz <= 0 {
		cfg.MaxCFOHz = def.MaxCFOHz
	}
	return &Watchdog{Cfg: cfg, relay: r}, nil
}

// Stats returns the watchdog's counters.
func (w *Watchdog) Stats() WatchdogStats { return w.stats }

// Healthy reports whether the relay is locked and not mid-recovery.
func (w *Watchdog) Healthy() bool { return w.relay.Locked() && !w.lostCurrent }

// TickCtx runs one supervision step against the current RF environment
// and reports whether the relay is locked-and-healthy after it. The
// state machine:
//
//	locked   → count consecutive senses below threshold (or off-carrier,
//	           or CFO beyond tolerance); after LossTicks, declare loss,
//	           Unlock the relay, and enter backoff.
//	unlocked → when the cool-down expires, re-sweep: if a carrier is
//	           sensed above threshold, Lock to it (which also clears any
//	           accumulated CFO — retuning the PLLs is the repair); else
//	           double the backoff up to the cap.
//
// When ctx carries an obs recorder, a loss of lock emits a
// "relay.lock_loss" instant span and a successful re-sweep emits a
// "relay.relock" span nested under whatever span the caller has open
// (the sortie, during a mission).
func (w *Watchdog) TickCtx(ctx context.Context, sense CarrierSense) bool {
	freq, pow, ok := sense.Sense()
	carrier := ok && pow >= w.Cfg.ThresholdDBm

	if w.relay.Locked() && !w.lostCurrent {
		// A lock is only good if the carrier is where the synthesizers
		// point (within the filter bandwidth) AND the LO has not drifted
		// out of the baseband filters.
		good := carrier &&
			abs(freq-w.relay.ReaderFreq()) < w.Cfg.MaxCFOHz &&
			abs(w.relay.CFOHz()) < w.Cfg.MaxCFOHz
		if good {
			w.badTicks = 0
			return true
		}
		w.badTicks++
		if w.badTicks < w.Cfg.LossTicks {
			return true // still debouncing; keep forwarding
		}
		// Loss of lock.
		w.stats.LossEvents++
		mLossEvents.Inc()
		_, sp := obs.StartSpan(ctx, "relay.lock_loss")
		sp.Bool("carrier", carrier).Float("cfo_hz", w.relay.CFOHz())
		sp.End()
		w.lostCurrent = true
		w.relay.Unlock()
		w.backoff = w.Cfg.BaseBackoffTicks
		w.coolDown = 0 // first re-sweep happens immediately
	}

	// Recovery: wait out the backoff, then re-sweep.
	if w.coolDown > 0 {
		w.coolDown--
		return false
	}
	w.stats.Resweeps++
	mResweeps.Inc()
	if carrier {
		w.relay.Lock(freq)
		w.stats.Relocks++
		mRelocks.Inc()
		_, sp := obs.StartSpan(ctx, "relay.relock")
		sp.Float("freq_hz", freq).Float("power_dbm", pow).Int("resweeps", int64(w.stats.Resweeps))
		sp.End()
		w.lostCurrent = false
		w.badTicks = 0
		w.backoff = 0
		return true
	}
	w.coolDown = w.backoff
	w.backoff *= 2
	if w.backoff > w.Cfg.MaxBackoffTicks {
		w.backoff = w.Cfg.MaxBackoffTicks
	}
	return false
}

// AwaitLock drives the re-sweep state machine until the relay is locked
// and healthy, a tick budget runs out, or ctx expires — the bounded
// "wait for the relay to come back" primitive a mission supervisor
// escalates through before replanning. It returns the number of ticks
// consumed. The error is nil only when the relay ended healthy; a budget
// exhaustion and a deadline are distinct errors so the caller's
// escalation policy can treat "the RF environment is dark" differently
// from "the mission clock ran out".
func (w *Watchdog) AwaitLock(ctx context.Context, sense CarrierSense, maxTicks int) (int, error) {
	for tick := 0; tick < maxTicks; tick++ {
		if err := ctx.Err(); err != nil {
			return tick, fmt.Errorf("relay: lock wait abandoned after %d ticks: %w", tick, err)
		}
		if w.TickCtx(ctx, sense) {
			return tick + 1, nil
		}
	}
	return maxTicks, fmt.Errorf("relay: no lock within %d ticks (%d re-sweeps)",
		maxTicks, w.stats.Resweeps)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// WaveformSense adapts a raw capture to the CarrierSense interface by
// running the Eq. 5 energy detector over the relay's candidate channels —
// the same sweep the initial LockToReader uses, so watchdog re-locks see
// exactly what bring-up saw.
type WaveformSense struct {
	Relay *Relay
	RX    []complex128
}

// Sense implements CarrierSense.
func (s WaveformSense) Sense() (float64, float64, bool) {
	if len(s.RX) == 0 {
		return 0, 0, false
	}
	best, p, ok := signal.EnergyDetect(s.RX, s.Relay.ISMChannels(), s.Relay.Cfg.Fs)
	if !ok || p <= 0 {
		return 0, 0, false
	}
	return best, signal.DBm(p), true
}
