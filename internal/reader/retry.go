package reader

import (
	"context"

	"rfly/internal/epc"
	"rfly/internal/obs"
)

var mRetryRounds = obs.Default().Counter("reader_retry_rounds_total")

// RetryPolicy bounds how hard the reader tries to turn a silent or
// undecodable inventory round into reads before giving up. Real Gen2
// readers do exactly this: a round that produces no EPCs (deep fade, a
// relay mid-re-lock, a burst interferer) is retried after an idle gap
// rather than abandoned, because most outages are shorter than a session.
type RetryPolicy struct {
	// MaxRetries is how many extra rounds may follow a read-less one.
	MaxRetries int
	// BackoffSlots is the idle gap before the first retry, in slot times;
	// each subsequent retry doubles it up to MaxBackoffSlots. The gap is
	// what gives the recovery machinery (watchdog re-sweep, gust decay)
	// time to act before the reader burns another round into a dark relay.
	BackoffSlots    int
	MaxBackoffSlots int
	// JitterSlots, when positive, adds a uniform draw from [0,
	// JitterSlots] to every backoff gap. Concurrency audit: the repo has
	// no math/rand on any hot path — all randomness flows through
	// explicit *rng.Source streams — and jitter keeps that discipline:
	// the draw comes from the retrying component's own source (the
	// reader's decode stream here, the deployment's stream in
	// sim.ReadAttemptRetryCtx), never shared state, so the fleet's
	// per-shard workers stay race-free under -race. Zero (the default)
	// draws nothing, leaving every pre-existing deterministic stream
	// untouched. The point of the jitter itself is the classic one:
	// shard workers that back off in lockstep re-collide in lockstep.
	JitterSlots int
}

// DefaultRetryPolicy matches the fault experiments' tick scale: up to 3
// retries, backing off 1 → 2 → 4 slots.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, BackoffSlots: 1, MaxBackoffSlots: 4}
}

// RetryOutcome aggregates a retried inventory exchange.
type RetryOutcome struct {
	// Stats is the merged slot bookkeeping across all attempts.
	Stats RoundStats
	// Attempts is how many rounds ran (1 = no retry needed).
	Attempts int
	// IdleSlots is the total backoff spent waiting between attempts.
	IdleSlots int
}

// RunInventoryRoundWithRetryCtx runs one inventory round and, when it
// produces zero successful reads, retries it under pol. Between attempts
// the reader idles for the backoff gap and reports it to onIdle (the
// experiment's hook to advance simulated time — tick the fault injector,
// the watchdog, the station-keeper); onIdle may be nil.
//
// All attempts' slot statistics are merged into the returned outcome, so
// ReadRate reflects the full exchange including the wasted rounds.
//
// Once ctx expires no further retry round is launched (the round in
// flight always completes — Gen2 rounds are short and aborting one
// mid-slot would leave session flags half-flipped). The merged outcome of
// the rounds that did run is returned alongside ctx's error, so a
// supervisor can both account the reads it got and know the exchange was
// cut short.
func (r *Reader) RunInventoryRoundWithRetryCtx(ctx context.Context, m Medium, sess epc.Session,
	target epc.Target, qalg *epc.QAlgorithm, pol RetryPolicy, onIdle func(slots int)) (RetryOutcome, error) {
	backoff := pol.BackoffSlots
	if backoff <= 0 {
		backoff = 1
	}
	var out RetryOutcome
	ctx, span := obs.StartSpan(ctx, "reader.round")
	defer func() {
		span.Int("attempts", int64(out.Attempts)).
			Int("reads", int64(len(out.Stats.Reads))).
			Int("idle_slots", int64(out.IdleSlots))
		span.End()
	}()
	for {
		mRetryRounds.Inc()
		stats := r.RunInventoryRound(m, sess, target, qalg)
		out.Attempts++
		out.Stats.Slots += stats.Slots
		out.Stats.Empty += stats.Empty
		out.Stats.Collisions += stats.Collisions
		out.Stats.RNFailures += stats.RNFailures
		out.Stats.Reads = append(out.Stats.Reads, stats.Reads...)
		if len(stats.Reads) > 0 || out.Attempts > pol.MaxRetries {
			return out, nil
		}
		if err := ctx.Err(); err != nil {
			return out, err
		}
		gap := backoff
		if pol.JitterSlots > 0 {
			gap += r.src.Intn(pol.JitterSlots + 1)
		}
		out.IdleSlots += gap
		if onIdle != nil {
			onIdle(gap)
		}
		backoff *= 2
		if pol.MaxBackoffSlots > 0 && backoff > pol.MaxBackoffSlots {
			backoff = pol.MaxBackoffSlots
		}
	}
}
