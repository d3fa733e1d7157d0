package sim

// Fault-layer tests: each injected fault class must perturb the link
// budget the way its physics says, persistent damage must survive the
// event window, and each recovery hook must actually restore service.

import (
	"context"
	"math"
	"testing"

	"rfly/internal/epc"
	"rfly/internal/fault"
	"rfly/internal/geom"
	"rfly/internal/relay"
	"rfly/internal/tag"
)

// faultRig builds the standard corridor deployment used across these
// tests: reader far enough that tags need the relay, relay hovering near
// the tags.
func faultRig(t *testing.T, seed uint64) (*Deployment, *tag.Tag) {
	t.Helper()
	d := openDeployment(true, geom.P2(-12, 1), geom.P2(0, 0), seed)
	tg := d.AddTag(epc.NewEPC96(0xFA, 0, 0, 0, 0, uint16(seed)), geom.P(1.5, 2, 0))
	b := d.LinkBudget(tg)
	if !b.Powered || !b.RelayStable {
		t.Fatalf("rig not healthy before fault: %+v", b)
	}
	return d, tg
}

func TestSynthDriftPersistsAndRelockHeals(t *testing.T) {
	d, tg := faultRig(t, 101)
	ev := fault.Event{Class: fault.SynthDrift, Start: 0, Duration: 3, Severity: 1.0}
	if err := d.ApplyFault(ev); err != nil {
		t.Fatal(err)
	}
	if d.RelayLockHealthy() {
		t.Fatal("full-severity drift (250 kHz > 150 kHz cutoff) should be dark")
	}
	if b := d.LinkBudget(tg); !math.IsInf(b.SNRdB, -1) {
		t.Fatalf("drifted relay still forwards: %+v", b)
	}
	// Reverting does NOT heal: the drift is in the PLLs, not the wind.
	if err := d.RevertFault(ev); err != nil {
		t.Fatal(err)
	}
	if d.RelayLockHealthy() {
		t.Fatal("revert should not repair persistent LO damage")
	}
	// The watchdog's re-lock is the repair.
	wd, err := relay.NewWatchdog(d.Relay, relay.WatchdogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		wd.TickCtx(context.Background(), d)
	}
	if !d.RelayLockHealthy() || d.Relay.CFOHz() != 0 {
		t.Fatalf("watchdog did not heal drift: healthy=%v cfo=%v",
			d.RelayLockHealthy(), d.Relay.CFOHz())
	}
	if b := d.LinkBudget(tg); !b.Powered {
		t.Fatalf("reads did not resume after re-lock: %+v", b)
	}
}

func TestSubOutageDriftIsSNRPenaltyOnly(t *testing.T) {
	d, tg := faultRig(t, 102)
	clean := d.LinkBudget(tg)
	d.ApplyFault(fault.Event{Class: fault.SynthDrift, Severity: 1, Param: 100e3})
	if !d.RelayLockHealthy() {
		t.Fatal("100 kHz drift is inside the 150 kHz filter: link should live")
	}
	b := d.LinkBudget(tg)
	wantPenalty := 20 * 100e3 / d.Relay.Cfg.LPFCutoff
	if got := clean.SNRdB - b.SNRdB; got < wantPenalty-6 || got > wantPenalty+6 {
		t.Fatalf("CFO penalty = %.1f dB, want ≈ %.1f", got, wantPenalty)
	}
}

func TestGainDroopRevertsWithCause(t *testing.T) {
	d, tg := faultRig(t, 103)
	before := d.Gains.UplinkGainDB
	ev := fault.Event{Class: fault.GainDroop, Severity: 1.0}
	d.ApplyFault(ev)
	if got := before - d.Gains.UplinkGainDB; got != 18 {
		t.Fatalf("droop = %v dB, want 18", got)
	}
	if b := d.LinkBudget(tg); !b.Powered {
		t.Fatalf("droop must not unpower the tag (downlink untouched): %+v", b)
	}
	d.RevertFault(ev)
	if d.Gains.UplinkGainDB != before {
		t.Fatalf("revert left gain at %v, want %v", d.Gains.UplinkGainDB, before)
	}
	// Double-revert must not double-credit.
	d.RevertFault(ev)
	if d.Gains.UplinkGainDB != before {
		t.Fatal("second revert changed the gain again")
	}
}

func TestIsolationCollapseNeedsReprogram(t *testing.T) {
	d, tg := faultRig(t, 104)
	ev := fault.Event{Class: fault.IsolationCollapse, Severity: 1.0}
	d.ApplyFault(ev)
	// The old plan now violates Eq. 3 against the collapsed isolation.
	if b := d.LinkBudget(tg); b.RelayStable {
		t.Fatalf("old gain plan still claims stability after a 25 dB collapse: %+v", b)
	}
	d.RevertFault(ev) // bent antenna stays bent
	if b := d.LinkBudget(tg); b.RelayStable {
		t.Fatal("revert should not un-bend the antenna")
	}
	stable, err := d.ReprogramGains()
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatal("reprogrammed plan should be stable against the collapsed isolation")
	}
	if b := d.LinkBudget(tg); !b.RelayStable {
		t.Fatalf("link still unstable after reprogram: %+v", b)
	}
}

func TestBatterySagUnlocksAndSwapNeedsRelock(t *testing.T) {
	d, tg := faultRig(t, 105)
	d.ApplyFault(fault.Event{Class: fault.BatterySag, Severity: 1})
	if d.RelayPowered() || d.RelayLockHealthy() {
		t.Fatal("sagged relay should be dark")
	}
	if _, _, ok := d.Sense(); ok {
		t.Fatal("a dead relay cannot sense carriers")
	}
	if b := d.LinkBudget(tg); b.Powered {
		t.Fatalf("tag powered through a dead relay: %+v", b)
	}
	// Battery swap restores power but NOT the lock (PLLs lost state).
	d.SetRelayPowered(true)
	if d.RelayLockHealthy() {
		t.Fatal("fresh battery should come up unlocked")
	}
	wd, _ := relay.NewWatchdog(d.Relay, relay.WatchdogConfig{})
	for i := 0; i < 6; i++ {
		wd.TickCtx(context.Background(), d)
	}
	if !d.RelayLockHealthy() {
		t.Fatal("watchdog did not re-acquire after the swap")
	}
}

func TestWindGustDisplacesAndStationKeepReturns(t *testing.T) {
	d, _ := faultRig(t, 106)
	plan := d.RelayPlanPos
	ev := fault.Event{Class: fault.WindGust, Severity: 1.0, Param: 0} // +x gust
	d.ApplyFault(ev)
	if d.RelayPos.Dist(plan) < 2.9 {
		t.Fatalf("gust displaced only %v m", d.RelayPos.Dist(plan))
	}
	if d.RelayPlanPos != plan {
		t.Fatal("gust must not move the station-keeping target")
	}
	if d.EmbeddedTag.Pos != d.RelayPos {
		t.Fatal("embedded tag did not ride the airframe")
	}
	// Station-keeping walks back at the controller's authority.
	rem := d.StationKeep(1.0)
	if rem <= 0 || rem >= 2.5 {
		t.Fatalf("after one 1 m step, remaining = %v", rem)
	}
	for i := 0; i < 5; i++ {
		d.StationKeep(1.0)
	}
	if d.RelayPos != plan {
		t.Fatalf("station-keeping never converged: %v vs %v", d.RelayPos, plan)
	}
}

func TestCarrierHopStaleLockUntilResweep(t *testing.T) {
	d, tg := faultRig(t, 107)
	ev := fault.Event{Class: fault.CarrierHop, Severity: 0.7}
	d.ApplyFault(ev)
	if d.ReaderCarrierHz() != 500e3 {
		t.Fatalf("hop = %v Hz", d.ReaderCarrierHz())
	}
	if d.RelayLockHealthy() {
		t.Fatal("relay locked at 0 Hz while the reader is at +500 kHz: stale")
	}
	if b := d.LinkBudget(tg); b.Powered {
		t.Fatalf("stale lock still forwards: %+v", b)
	}
	d.RevertFault(ev) // the reader stays on its new channel
	if d.RelayLockHealthy() {
		t.Fatal("revert should not move the reader back")
	}
	wd, _ := relay.NewWatchdog(d.Relay, relay.WatchdogConfig{})
	for i := 0; i < 8; i++ {
		wd.TickCtx(context.Background(), d)
	}
	if !d.RelayLockHealthy() {
		t.Fatal("watchdog did not chase the hop")
	}
	if d.Relay.ReaderFreq() != 500e3 {
		t.Fatalf("re-locked to %v, want 500 kHz", d.Relay.ReaderFreq())
	}
}

func TestBurstInterferenceDegradesSINRAndReverts(t *testing.T) {
	d, tg := faultRig(t, 108)
	clean := d.LinkBudget(tg)
	ev := fault.Event{Class: fault.BurstInterference, Severity: 1.0}
	d.ApplyFault(ev)
	if !d.RelayLockOK() {
		t.Fatal("the burst interferer must not steal the relay's lock")
	}
	dirty := d.LinkBudget(tg)
	if !dirty.Powered {
		t.Fatalf("burst must degrade, not unpower: %+v", dirty)
	}
	if drop := clean.SNRdB - dirty.SNRdB; drop < 3 {
		t.Fatalf("SINR drop = %.1f dB, too weak to matter", drop)
	}
	d.RevertFault(ev)
	if len(d.Interferers) != 0 {
		t.Fatalf("interferer not removed: %d left", len(d.Interferers))
	}
	after := d.LinkBudget(tg)
	if math.Abs(after.SNRdB-clean.SNRdB) > 10 {
		t.Fatalf("post-revert SNR %.1f far from clean %.1f", after.SNRdB, clean.SNRdB)
	}
}

func TestFaultsWithoutRelayError(t *testing.T) {
	d := openDeployment(false, geom.P2(0, 0), geom.Point{}, 109)
	for _, c := range []fault.Class{fault.SynthDrift, fault.GainDroop,
		fault.IsolationCollapse, fault.BatterySag, fault.WindGust} {
		if err := d.ApplyFault(fault.Event{Class: c, Severity: 1}); err == nil {
			t.Fatalf("%v accepted without a relay", c)
		}
	}
	// Reader-side faults are fine without a relay.
	if err := d.ApplyFault(fault.Event{Class: fault.BurstInterference, Severity: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestBrownOutClearsS0Only is the §6.3.2.2 persistence check: a tag that
// loses power mid-inventory forgets its S0 inventoried flag (held only
// while energized) but keeps S2 — which is exactly why drone inventories
// run in the higher sessions.
func TestBrownOutClearsS0Only(t *testing.T) {
	d, tg := faultRig(t, 110)

	// Inventory the tag in S0 and in S2 so both flags are set.
	for _, sess := range []epc.Session{epc.S0, epc.S2} {
		qalg := epc.NewQAlgorithm(1, 0.3)
		for round := 0; round < 12 && !tg.Inventoried(sess); round++ {
			d.Reader.RunInventoryRound(d, sess, epc.TargetA, qalg)
		}
		if !tg.Inventoried(sess) {
			t.Fatalf("could not inventory the tag in %v", sess)
		}
	}

	// Brown-out: the relay's battery sags, the tag loses power, and the
	// next command window finds it silent — the Send path must notice the
	// powered→unpowered transition and power-cycle the chip.
	d.ApplyFault(fault.Event{Class: fault.BatterySag, Severity: 1})
	d.Send(epc.QueryRep{Session: epc.S0})
	if tg.Inventoried(epc.S0) {
		t.Fatal("S0 flag survived a brown-out")
	}
	if !tg.Inventoried(epc.S2) {
		t.Fatal("S2 flag must persist through a brown-out")
	}

	// Power returns (battery swap + watchdog re-lock): the tag re-wakes
	// still holding S2, so an S2 TargetA round skips it.
	d.SetRelayPowered(true)
	wd, _ := relay.NewWatchdog(d.Relay, relay.WatchdogConfig{})
	for i := 0; i < 6; i++ {
		wd.TickCtx(context.Background(), d)
	}
	if b := d.LinkBudget(tg); !b.Powered {
		t.Fatalf("tag not repowered after swap: %+v", b)
	}
	if !tg.Inventoried(epc.S2) {
		t.Fatal("S2 flag lost across the repower")
	}
}
