package runtime

import (
	"bytes"
	"context"
	"testing"

	"rfly/internal/fault"
	"rfly/internal/swarm"
)

// swarmConfig is testConfig flown by a three-drone fleet, with the
// persistent-damage events (carrier hop, battery sag) left out so the
// zero-loss comparison below exercises only the failover machinery.
func swarmConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Sorties = 3
	cfg.TicksPerSortie = 25
	cfg.SARPointsPerSortie = 8
	cfg.Swarm = swarm.Config{Relays: 3}
	cfg.Schedule = fault.Schedule{Events: []fault.Event{
		{Class: fault.WindGust, Start: 5, Duration: 4, Severity: 0.8, Param: 1.1},
		{Class: fault.GainDroop, Start: 12, Duration: 6, Severity: 0.5, Param: 9},
	}}
	return cfg
}

// killAt returns cfg with the serving primary destroyed at the given
// absolute mission tick.
func killAt(cfg Config, tick int) Config {
	ev := fault.Event{Class: fault.RelayDeath, Start: tick, Severity: 1}
	cfg.Schedule = fault.Schedule{Events: append(append([]fault.Event(nil), cfg.Schedule.Events...), ev)}
	return cfg
}

func TestSwarmMissionDeterminism(t *testing.T) {
	a := runFull(t, killAt(swarmConfig(7), 45)).CSV()
	b := runFull(t, killAt(swarmConfig(7), 45)).CSV()
	if a != b {
		t.Fatalf("same seed, different CSV:\n%s\nvs\n%s", a, b)
	}
}

// TestSwarmFailoverZeroLoss is the tentpole invariant: killing the
// primary mid-aperture, with a hot shadow pre-locked on the frequency
// plan, must not cost a single SAR sample or read — the mission's
// localization is bit-identical to the uninterrupted twin.
func TestSwarmFailoverZeroLoss(t *testing.T) {
	// Tick 45 = sortie 1, tick 20: inside the aperture window (ticks
	// 17..24 of a 25-tick sortie with 8 capture points).
	killed := runFull(t, killAt(swarmConfig(7), 45))
	twin := runFull(t, swarmConfig(7))

	if len(killed.Sorties) != 3 || len(twin.Sorties) != 3 {
		t.Fatalf("missions did not complete: %d vs %d sorties", len(killed.Sorties), len(twin.Sorties))
	}
	promotions := 0
	var handoffs []swarm.HandoffRecord
	for i := range killed.Sorties {
		ks, ts := killed.Sorties[i], twin.Sorties[i]
		if ks.Aborted || ts.Aborted {
			t.Fatalf("sortie %d aborted (killed=%v twin=%v)", i, ks.Aborted, ts.Aborted)
		}
		if ks.Reads != ts.Reads || ks.Attempts != ts.Attempts {
			t.Errorf("sortie %d reads diverged: killed %d/%d, twin %d/%d",
				i, ks.Reads, ks.Attempts, ts.Reads, ts.Attempts)
		}
		if ks.SARPoints != ts.SARPoints {
			t.Errorf("sortie %d SAR points diverged: killed %d, twin %d — samples lost across the handoff",
				i, ks.SARPoints, ts.SARPoints)
		}
		promotions += ks.Promotions
		handoffs = append(handoffs, ks.Handoffs...)
	}
	if promotions != 1 || len(handoffs) != 1 {
		t.Fatalf("want exactly one promotion, got %d (%d handoff records)", promotions, len(handoffs))
	}
	h := handoffs[0]
	if h.FromID == h.ToID {
		t.Fatalf("handoff did not move the primaryship: %+v", h)
	}
	if !h.PreLocked {
		t.Fatalf("shadow was not pre-locked at promotion: %+v", h)
	}
	if h.LatencyTicks != 0 {
		t.Fatalf("hot failover should complete within the loss tick, took %d", h.LatencyTicks)
	}
	if h.SARCaptured == 0 || h.SARCaptured >= killed.Sorties[1].SARPoints {
		t.Fatalf("handoff should bisect the capture buffer: %d of %d at handoff",
			h.SARCaptured, killed.Sorties[1].SARPoints)
	}
	if !killed.LocOK || !twin.LocOK {
		t.Fatalf("localization failed: killed=%v twin=%v", killed.LocOK, twin.LocOK)
	}
	if killed.LocX != twin.LocX || killed.LocY != twin.LocY {
		t.Fatalf("localization diverged across a hot failover: (%.6f,%.6f) vs (%.6f,%.6f)",
			killed.LocX, killed.LocY, twin.LocX, twin.LocY)
	}
}

// TestSwarmPromotionSpanNesting: the handoff checkpoint event must be
// visible in the flight recorder as a promotion span nested inside the
// sortie it interrupted, wrapping its election.
func TestSwarmPromotionSpanNesting(t *testing.T) {
	spans, _ := recordMission(t, killAt(swarmConfig(7), 45), 4096)
	tree := buildTree(t, spans)

	promos := tree.Find("swarm.promotion")
	if len(promos) == 0 {
		t.Fatal("no swarm.promotion span recorded")
	}
	promoted := 0
	for _, p := range promos {
		if tree.Ancestor(p, "runtime.sortie") == nil {
			t.Errorf("promotion span not nested inside a sortie span")
		}
		if tree.Ancestor(p, "runtime.escalation") == nil {
			t.Errorf("promotion span should be raised by the escalation ladder")
		}
		if a, ok := p.Attr("promoted"); ok && a.Num != 0 {
			promoted++
		}
	}
	if promoted != 1 {
		t.Fatalf("want exactly one successful promotion span, got %d of %d", promoted, len(promos))
	}
	// Elections happen at the first launch and inside each successful
	// promotion (later sorties keep their carried primary while it stays
	// eligible): 1 launch + 1 promotion = 2, with exactly the promotion's
	// election nested inside a promotion span.
	elections := tree.Find("swarm.election")
	if len(elections) != 2 {
		t.Fatalf("want 2 elections (first launch + promotion), got %d", len(elections))
	}
	nested := 0
	for _, el := range elections {
		if tree.Ancestor(el, "runtime.sortie") == nil {
			t.Errorf("election outside a sortie span")
		}
		if tree.Ancestor(el, "swarm.promotion") != nil {
			nested++
		}
	}
	if nested != 1 {
		t.Fatalf("want exactly the promotion's election nested inside it, got %d", nested)
	}
}

// TestSwarmCheckpointResume: kill/resume equivalence holds for fleet
// missions — the swarm block in the v2 checkpoint carries everything.
func TestSwarmCheckpointResume(t *testing.T) {
	cfg := killAt(swarmConfig(11), 30) // kill in sortie 1: fleet damage must cross the resume
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := ref.ResultCtx(context.Background()).CSV()

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run past the kill so the carried fleet has a dead member, then
	// checkpoint, restore, and finish.
	if err := e.RunSorties(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	snap := e.SnapshotCtx(context.Background())
	re, err := Restore(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.SnapshotCtx(context.Background()), snap) {
		t.Fatal("restored engine re-encodes a different checkpoint")
	}
	if _, err := re.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := re.ResultCtx(context.Background()).CSV(); got != want {
		t.Fatalf("resumed swarm mission diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestSwarmNoShadowAborts: a single-drone "fleet" has nothing to promote;
// destroying its relay must abort the sortie (and the dead airframe must
// stay dead — later sorties launch dark and abort too, rather than being
// battery-swapped back to life).
func TestSwarmNoShadowAborts(t *testing.T) {
	cfg := swarmConfig(7)
	cfg.Swarm.Relays = 1
	res := runFull(t, killAt(cfg, 30))
	if len(res.Sorties) != 3 {
		t.Fatalf("mission should still land all sorties, got %d", len(res.Sorties))
	}
	if !res.Sorties[1].Aborted {
		t.Fatal("sortie with a destroyed lone relay did not abort")
	}
	if res.Sorties[1].Promotions != 0 {
		t.Fatalf("promotion with no shadow available: %d", res.Sorties[1].Promotions)
	}
	if !res.Sorties[2].Aborted {
		t.Fatal("destroyed airframe came back to life in the next sortie")
	}
}

// TestSwarmColdSparePromotes: with ColdSpares set the shadow is dark at
// promotion (PreLocked false) and must re-acquire through the watchdog —
// the mission still completes, which is the degraded-mode guarantee.
func TestSwarmColdSparePromotes(t *testing.T) {
	cfg := swarmConfig(7)
	cfg.Swarm.ColdSpares = true
	res := runFull(t, killAt(cfg, 45))
	var handoffs []swarm.HandoffRecord
	aborted := 0
	for _, s := range res.Sorties {
		handoffs = append(handoffs, s.Handoffs...)
		if s.Aborted {
			aborted++
		}
	}
	if len(handoffs) != 1 {
		t.Fatalf("want one handoff, got %d", len(handoffs))
	}
	if handoffs[0].PreLocked {
		t.Fatal("cold spare reported a pre-locked carrier")
	}
	if aborted != 0 {
		t.Fatalf("cold-spare failover aborted %d sorties", aborted)
	}
}
