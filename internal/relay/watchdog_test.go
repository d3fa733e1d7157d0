package relay

import (
	"context"
	"testing"

	"rfly/internal/rng"
	"rfly/internal/signal"
)

// fakeSense is a scripted CarrierSense: each Tick consumes one step.
type fakeSense struct {
	freq float64
	pow  float64
	ok   bool
}

func (f fakeSense) Sense() (float64, float64, bool) { return f.freq, f.pow, f.ok }

// carrier returns a healthy sense at the given offset frequency.
func carrier(freq float64) fakeSense { return fakeSense{freq: freq, pow: -40, ok: true} }

// silence returns a no-carrier sense.
func silence() fakeSense { return fakeSense{} }

func newWatchdogRelay(t *testing.T, seed uint64) (*Relay, *Watchdog) {
	t.Helper()
	r := New(DefaultConfig(), rng.New(seed))
	r.Lock(0)
	w, err := NewWatchdog(r, WatchdogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return r, w
}

func TestWatchdogStaysHealthyOnGoodCarrier(t *testing.T) {
	r, w := newWatchdogRelay(t, 1)
	for i := 0; i < 10; i++ {
		if !w.TickCtx(context.Background(), carrier(0)) {
			t.Fatalf("tick %d: healthy relay reported unhealthy", i)
		}
	}
	if !r.Locked() || !w.Healthy() {
		t.Fatal("relay should still be locked")
	}
	if s := w.Stats(); s.LossEvents != 0 || s.Resweeps != 0 {
		t.Fatalf("no-fault run logged events: %+v", s)
	}
}

func TestWatchdogDebouncesSingleBadSense(t *testing.T) {
	r, w := newWatchdogRelay(t, 2)
	// One bad tick (below LossTicks=2) must not drop the lock.
	if !w.TickCtx(context.Background(), silence()) {
		t.Fatal("single bad sense dropped the lock")
	}
	if !r.Locked() {
		t.Fatal("relay unlocked during debounce")
	}
	// A good tick resets the counter; another lone bad tick is again fine.
	w.TickCtx(context.Background(), carrier(0))
	if !w.TickCtx(context.Background(), silence()) {
		t.Fatal("debounce counter was not reset by the good sense")
	}
	if s := w.Stats(); s.LossEvents != 0 {
		t.Fatalf("debounced run declared a loss: %+v", s)
	}
}

func TestWatchdogLossAndImmediateRelock(t *testing.T) {
	r, w := newWatchdogRelay(t, 3)
	w.TickCtx(context.Background(), silence())
	// Second consecutive miss: loss declared, first re-sweep runs in the
	// same tick, and since the carrier is still gone it fails.
	if w.TickCtx(context.Background(), silence()) {
		t.Fatal("loss tick reported healthy")
	}
	if r.Locked() || w.Healthy() {
		t.Fatal("relay should be unlocked after LossTicks misses")
	}
	s := w.Stats()
	if s.LossEvents != 1 || s.Resweeps != 1 || s.Relocks != 0 {
		t.Fatalf("after loss: %+v", s)
	}
	// Carrier returns on the next re-sweep window → re-lock.
	relocked := false
	for i := 0; i < 5; i++ {
		if w.TickCtx(context.Background(), carrier(100e3)) {
			relocked = true
			break
		}
	}
	if !relocked {
		t.Fatal("watchdog never re-locked on a returned carrier")
	}
	if !r.Locked() || r.ReaderFreq() != 100e3 {
		t.Fatalf("re-lock state: locked=%v freq=%v", r.Locked(), r.ReaderFreq())
	}
	if s := w.Stats(); s.Relocks != 1 {
		t.Fatalf("after re-lock: %+v", s)
	}
}

func TestWatchdogExponentialBackoff(t *testing.T) {
	_, w := newWatchdogRelay(t, 4)
	// Drive to loss; then count ticks between re-sweep attempts while the
	// carrier stays gone. Expected gaps: backoff doubles 1→2→4→8 and caps.
	w.TickCtx(context.Background(), silence())
	w.TickCtx(context.Background(), silence()) // loss + immediate sweep #1
	sweeps := []int{0}
	last := w.Stats().Resweeps
	for tick := 1; tick <= 40; tick++ {
		w.TickCtx(context.Background(), silence())
		if s := w.Stats().Resweeps; s != last {
			sweeps = append(sweeps, tick)
			last = s
		}
	}
	// Gaps between consecutive sweep ticks: 1+1, 2+1, 4+1, 8+1, 8+1 …
	// (coolDown of n means n idle ticks between attempts).
	wantGaps := []int{2, 3, 5, 9, 9}
	for i, want := range wantGaps {
		if i+1 >= len(sweeps) {
			t.Fatalf("only %d sweeps observed, want ≥ %d", len(sweeps), len(wantGaps)+1)
		}
		if got := sweeps[i+1] - sweeps[i]; got != want {
			t.Fatalf("gap %d = %d ticks, want %d (sweep ticks %v)", i, got, want, sweeps)
		}
	}
}

// Regression: a successful re-lock must reset the re-sweep backoff to
// BaseBackoffTicks. If the interval carried over from a previous outage,
// a relay that had once backed off to the cap would respond to every
// later loss at cap latency — exactly the sluggishness the exponential
// schedule is meant to reserve for sustained outages.
func TestWatchdogBackoffResetsAfterRelock(t *testing.T) {
	// Drive one outage long enough to escalate past the base interval,
	// heal it, then measure the sweep cadence of a second outage.
	episodeGaps := func(w *Watchdog) []int {
		w.TickCtx(context.Background(), silence())
		w.TickCtx(context.Background(), silence()) // loss + immediate sweep
		var gaps []int
		last, lastTick := w.Stats().Resweeps, 0
		for tick := 1; tick <= 20; tick++ {
			w.TickCtx(context.Background(), silence())
			if s := w.Stats().Resweeps; s != last {
				gaps = append(gaps, tick-lastTick)
				last, lastTick = s, tick
			}
		}
		return gaps
	}
	r, w := newWatchdogRelay(t, 8)
	first := episodeGaps(w)
	// Heal: the next re-sweep window finds the carrier again.
	for i := 0; i < 20 && !w.TickCtx(context.Background(), carrier(0)); i++ {
	}
	if !r.Locked() || !w.Healthy() {
		t.Fatal("relay never re-locked between outages")
	}
	second := episodeGaps(w)
	if len(first) < 3 || len(second) < 3 {
		t.Fatalf("too few sweeps observed: first %v, second %v", first, second)
	}
	for i, want := range []int{2, 3, 5} {
		if second[i] != want {
			t.Fatalf("second outage gaps %v: gap %d = %d, want %d (backoff did not reset to base; first outage %v)",
				second, i, second[i], want, first)
		}
	}
}

func TestWatchdogCFOBeyondToleranceDropsLock(t *testing.T) {
	r, w := newWatchdogRelay(t, 5)
	// Accumulated LO drift beyond the LPF cutoff: energy is still present
	// but the forwarded baseband is dark, so the watchdog must re-lock.
	r.ApplyCFO(w.Cfg.MaxCFOHz * 1.5)
	w.TickCtx(context.Background(), carrier(0))
	w.TickCtx(context.Background(), carrier(0)) // loss declared; immediate re-sweep finds the carrier
	if r.CFOHz() != 0 {
		t.Fatalf("re-lock did not clear CFO: %v Hz", r.CFOHz())
	}
	if !r.Locked() || !w.Healthy() {
		t.Fatal("relay should be re-locked with PLLs retuned")
	}
	if s := w.Stats(); s.LossEvents != 1 || s.Relocks != 1 {
		t.Fatalf("CFO recovery stats: %+v", s)
	}
}

func TestWatchdogOffFrequencyCarrierIsLoss(t *testing.T) {
	r, w := newWatchdogRelay(t, 6)
	// Reader hopped far away: strong carrier, wrong channel.
	hop := w.Cfg.MaxCFOHz * 4
	w.TickCtx(context.Background(), carrier(hop))
	w.TickCtx(context.Background(), carrier(hop))
	if !r.Locked() || r.ReaderFreq() != hop {
		t.Fatalf("watchdog should have chased the hop: locked=%v freq=%v",
			r.Locked(), r.ReaderFreq())
	}
	if s := w.Stats(); s.LossEvents != 1 || s.Relocks != 1 {
		t.Fatalf("hop recovery stats: %+v", s)
	}
}

func TestWaveformSense(t *testing.T) {
	r := New(DefaultConfig(), rng.New(7))
	ch := r.ISMChannels()
	want := ch[len(ch)/2]
	rx := signal.Tone(8192, want, r.Cfg.Fs, 0.2, 1e-3)
	freq, pow, ok := WaveformSense{Relay: r, RX: rx}.Sense()
	if !ok || freq != want {
		t.Fatalf("sense = (%v, %v, %v), want carrier at %v", freq, pow, ok, want)
	}
	if pow < -60 || pow > 0 {
		t.Fatalf("implausible sensed power %v dBm", pow)
	}
	if _, _, ok := (WaveformSense{Relay: r, RX: make([]complex128, 4096)}).Sense(); ok {
		t.Fatal("silence sensed as a carrier")
	}
}
