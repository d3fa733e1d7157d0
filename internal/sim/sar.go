package sim

import (
	"context"
	"fmt"
	"math"

	"rfly/internal/drone"
	"rfly/internal/geom"
	"rfly/internal/loc"
	"rfly/internal/obs"
	"rfly/internal/reader"
	"rfly/internal/signal"
	"rfly/internal/tag"
)

// SARCapture is the channel data collected along one flight.
type SARCapture struct {
	// Target holds the raw (entangled) target-tag channels per point.
	Target []loc.Measurement
	// Embedded holds the relay-embedded tag's channels per point.
	Embedded []loc.Measurement
	// Disentangled is Target/Embedded (Eq. 10), what the localizer uses.
	Disentangled []loc.Measurement
	// MeanSNRdB is the average capture SNR, for diagnostics.
	MeanSNRdB float64
}

// CollectSARCtx flies the relay along a flight and captures the target
// tag's and the embedded tag's channels at every tracked point, then
// disentangles the half-links (Eq. 10). Points where the tag is unpowered
// or the capture fails to decode are skipped, as they would be in a real
// flight.
//
// onPoint, when non-nil, runs after the relay moves to flight point i but
// before that point's capture: the fault experiments use it to advance an
// injector/watchdog timeline in lockstep with the flight (a gust or LO
// drift then perturbs exactly the mid-aperture captures it should).
//
// The flight is abandoned between aperture points when ctx expires,
// because a drone that has run out its mission clock must head home
// rather than keep capturing. A cancelled flight returns ctx's error —
// never a partial capture, since a truncated aperture would localize with
// silently degraded accuracy.
func (d *Deployment) CollectSARCtx(ctx context.Context, f drone.Flight, target *tag.Tag, onPoint func(i int)) (*SARCapture, error) {
	if d.Relay == nil {
		return nil, fmt.Errorf("sim: SAR collection requires a relay")
	}
	ctx, span := obs.StartSpan(ctx, "sim.sar_collect")
	span.Int("flight_points", int64(len(f.True)))
	cap := &SARCapture{}
	defer func() {
		span.Int("captures", int64(len(cap.Target)))
		span.End()
	}()
	var snrSum float64
	for i, truePos := range f.True {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: SAR flight abandoned at point %d/%d: %w", i, len(f.True), err)
		}
		d.MoveRelay(truePos)
		if onPoint != nil {
			onPoint(i)
		}
		mT, mE, snr, ok := d.CaptureSARPoint(target, f.Measured[i])
		if !ok {
			continue
		}
		cap.Target = append(cap.Target, mT)
		cap.Embedded = append(cap.Embedded, mE)
		cap.Disentangled = append(cap.Disentangled, loc.Disentangle(mT, mE))
		snrSum += snr
	}
	if len(cap.Target) == 0 {
		return nil, fmt.Errorf("sim: no usable captures along the flight")
	}
	cap.MeanSNRdB = snrSum / float64(len(cap.Target))
	return cap, nil
}

// CaptureSARPoint attempts one synthetic-aperture capture of target at
// the relay's CURRENT position, pairing it with the embedded tag's
// reference capture. measuredPos is the OptiTrack measurement of the
// point (what the localizer will see). It returns ok = false when the
// point contributes nothing — the tag is unpowered, the relay unstable,
// or the decode fails — exactly the drop-out cases a real flight skips.
// The draw order is load-bearing: it is the same sequence
// CollectSARCtx has always made, so the two capture paths (the
// end-of-sortie pass and the swarm engine's in-loop aperture ticks)
// produce bit-identical streams.
func (d *Deployment) CaptureSARPoint(target *tag.Tag, measuredPos geom.Point) (loc.Measurement, loc.Measurement, float64, bool) {
	var zero loc.Measurement
	bud := d.LinkBudget(target)
	if !bud.Powered || !bud.RelayStable {
		return zero, zero, 0, false
	}
	// A capture requires decoding the tag's response; low-SNR points
	// drop out of the synthetic aperture.
	if !d.Reader.DrawDecodeSuccess(bud.SNRdB, 128) {
		return zero, zero, 0, false
	}
	hT, err := d.channelTo(target, bud.SNRdB)
	if err != nil {
		return zero, zero, 0, false
	}
	ebud := d.embeddedBudget()
	if !ebud.Powered {
		return zero, zero, 0, false
	}
	hE, err := d.embeddedChannel(ebud.SNRdB)
	if err != nil {
		return zero, zero, 0, false
	}
	// The localizer sees the OptiTrack-measured position. Captures
	// taken under a degraded carrier lock (residual CFO) carry no
	// usable phase; tag them so LocalizeRobustCtx can reject them.
	unlocked := d.Relay.CFOHz() != 0 || !d.RelayLockHealthy()
	mT := loc.Measurement{Pos: measuredPos, H: hT, Unlocked: unlocked}
	mE := loc.Measurement{Pos: measuredPos, H: hE, Unlocked: unlocked}
	return mT, mE, bud.SNRdB, true
}

// DisentangleCapture divides per-point target captures by their paired
// embedded-tag references (Eq. 10, loc.Disentangle) and returns the
// disentangled measurements the localizer consumes. Both slices must be
// point-aligned and non-empty.
func DisentangleCapture(target, embedded []loc.Measurement) ([]loc.Measurement, error) {
	if len(target) == 0 || len(target) != len(embedded) {
		return nil, fmt.Errorf("sim: disentangle needs aligned captures (got %d target, %d embedded)",
			len(target), len(embedded))
	}
	out := make([]loc.Measurement, len(target))
	for i := range target {
		out[i] = loc.Disentangle(target[i], embedded[i])
	}
	return out, nil
}

// ReadAttempt performs one complete read attempt of a tag at the current
// geometry: fresh shadowing draws, power-up check, RN16 decode, and EPC
// decode. It is the Fig. 11 reading-rate primitive.
func (d *Deployment) ReadAttempt(t *tag.Tag) bool {
	bud := d.LinkBudget(t)
	if !bud.Powered || !bud.RelayStable {
		return false
	}
	// RN16 (16 bits) then PC+EPC+CRC (128 bits for a 96-bit EPC).
	return d.Reader.DrawDecodeSuccess(bud.SNRdB, 16) &&
		d.Reader.DrawDecodeSuccess(bud.SNRdB, 128)
}

// ReadAttemptRetryCtx is ReadAttempt under a retry policy: a failed
// attempt is re-tried up to pol.MaxRetries times, with onIdle invoked for
// the backoff gap before each retry (the fault experiments advance their
// injector/watchdog timeline there; nil is fine). Fresh shadowing and
// decode draws per attempt are what make retrying worthwhile — most
// outages a drone relay sees are shorter than a round.
//
// No further retry is launched once ctx expires (the attempt in flight is
// atomic — a single budget evaluation — so there is nothing to
// interrupt). A cancelled exchange reports false with ctx's error so
// callers can tell "the tag is unreadable" from "we ran out of time
// trying".
func (d *Deployment) ReadAttemptRetryCtx(ctx context.Context, t *tag.Tag, pol reader.RetryPolicy, onIdle func(slots int)) (bool, error) {
	backoff := pol.BackoffSlots
	if backoff <= 0 {
		backoff = 1
	}
	ctx, span := obs.StartSpan(ctx, "sim.read")
	attempts := 0
	var got bool
	defer func() {
		span.Int("attempts", int64(attempts)).Bool("ok", got)
		span.End()
	}()
	for attempt := 0; ; attempt++ {
		attempts = attempt + 1
		if d.ReadAttempt(t) {
			got = true
			return true, nil
		}
		if attempt >= pol.MaxRetries {
			return false, nil
		}
		if err := ctx.Err(); err != nil {
			return false, err
		}
		gap := backoff
		if pol.JitterSlots > 0 {
			// Jitter draws come from the deployment's own deterministic
			// stream (see reader.RetryPolicy.JitterSlots): per-engine,
			// never shared across fleet shards, and absent entirely at
			// the zero default so legacy streams are unperturbed.
			gap += d.src.Intn(pol.JitterSlots + 1)
		}
		if onIdle != nil {
			onIdle(gap)
		}
		backoff *= 2
		if pol.MaxBackoffSlots > 0 && backoff > pol.MaxBackoffSlots {
			backoff = pol.MaxBackoffSlots
		}
	}
}

// ReadRate runs n read attempts and returns the success fraction.
func (d *Deployment) ReadRate(t *tag.Tag, n int) float64 {
	if n <= 0 {
		return 0
	}
	ok := 0
	for i := 0; i < n; i++ {
		if d.ReadAttempt(t) {
			ok++
		}
	}
	return float64(ok) / float64(n)
}

// RSSICalibConst returns the free-space calibration constant the §7.3
// RSSI baseline receives: K such that |h'| = K·(λ/(4πd))² for the
// disentangled round-trip channel. The disentangled channel's amplitude is
// (relay→tag one-way)² × tagCoeff/2 ÷ embedded constant; this helper
// inverts the same model the simulation uses, which is exactly the
// information the paper supplies its baseline.
func (d *Deployment) RSSICalibConst(t *tag.Tag) float64 {
	if d.Relay == nil {
		return 0
	}
	// The disentangled channel is h' = h_rt·h_tr·coeff/emb, so in free
	// space |h'| = G_ant·(λ/4πd)²·coeff/emb with G_ant the amplitude of
	// the 2+2 dBi relay↔tag antenna gains. Matching RangeFromRSSI's
	// |h| = K·(λ/4πd)² model gives K = G_ant·coeff/emb.
	emb := d.EmbeddedTag.Cfg.BackscatterCoeff / 2 * 0.01
	coeff := t.Cfg.BackscatterCoeff / 2
	return coeff * signal.AmpFromDB(4) / emb
}

// DisentangledMag returns the predicted noiseless disentangled channel
// magnitude at relay→tag distance dm, for calibration tests.
func (d *Deployment) DisentangledMag(t *tag.Tag, dm float64) float64 {
	lambda := signal.C / (d.Model.Freq + d.Relay.Cfg.ShiftHz)
	oneWay := lambda / (4 * math.Pi * dm)
	return oneWay * oneWay * d.RSSICalibConst(t)
}
