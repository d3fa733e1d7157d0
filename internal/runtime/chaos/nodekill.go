package chaos

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"rfly/internal/federation"
	"rfly/internal/fleet"
	"rfly/internal/rng"
	"rfly/internal/runtime"
)

// Node-kill campaign: the federation tier's chaos harness, one level up
// from the relay-kill campaign. Where relay-kill destroys a drone
// inside one engine, node-kill destroys a whole serving NODE — the
// process flying the mission — after a randomly drawn checkpoint
// boundary has replicated to its successor. For each seed the campaign
// spins up a fresh federated fleet, flies one SAR mission through the
// coordinator, hard-kills the mission's node mid-flight, and holds the
// tentpole's promises:
//
//   - the in-flight mission still completes: the health detector
//     declares the node dead and the coordinator re-leases the mission
//     on a survivor;
//   - the re-lease resumes from the last REPLICATED checkpoint (not a
//     fresh rerun) — the replica a live successor held when the
//     primary died;
//   - the resumed mission's localization and per-tag read counts are
//     bit-identical to an in-process twin that was never interrupted;
//   - the final primary publishes the twin's capture log byte for byte,
//     though the log reached it only inside the replicated checkpoint.
//
// The schedule is deterministic per (BaseSeed, seed): mission seed,
// region, and kill boundary all derive from the campaign's rng stream,
// so a failing seed replays exactly.

// NodeKillCampaignConfig shapes a node-kill campaign.
type NodeKillCampaignConfig struct {
	// Seeds is how many randomized kill runs to fly (default 16).
	Seeds int
	// BaseSeed roots the campaign's derivations.
	BaseSeed uint64
	// Nodes is the federated fleet size (default 3; minimum 2 — a solo
	// fleet has nowhere to fail over to).
	Nodes int
	// Fleet is the per-node scheduler shape. Zero value →
	// DefaultNodeKillFleet: a mission long enough (SAR-heavy sorties)
	// that the kill reliably lands mid-flight even on a slow box.
	Fleet fleet.Config
	// Logf, when set, receives one line per completed run.
	Logf func(format string, args ...any)
}

// DefaultNodeKillFleet is the canonical campaign node shape. The SAR
// solve dominates sortie time, so the high aperture count (set on the
// request, see runNodeKill) is what buys the kill window: ~30 ms per
// sortie across 8 sorties leaves hundreds of milliseconds between the
// first replicated boundary and mission end.
func DefaultNodeKillFleet() fleet.Config {
	return fleet.Config{Shards: 1, Sorties: 8, TicksPerSortie: 64}
}

// nodeKillFederation is the campaign's coordinator timing profile —
// short enough that detection and failover fit in test time, long
// enough that a CPU-starved heartbeat on a single-core box never reads
// as death (a real kill fails probes instantly, so DeadAfter is pure
// detection latency).
func nodeKillFederation(nodes []string) federation.Config {
	return federation.Config{
		Nodes:          nodes,
		Seed:           1,
		Heartbeat:      25 * time.Millisecond,
		SuspectAfter:   150 * time.Millisecond,
		DeadAfter:      500 * time.Millisecond,
		PollEvery:      10 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
		MaxRetries:     2,
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
	}
}

// NodeKillResult summarizes a campaign.
type NodeKillResult struct {
	Runs         int
	Failovers    int // runs whose mission was re-leased after the kill
	Resumed      int // failovers that restored the replicated checkpoint
	BitIdentical int // runs whose localization matched the twin exactly
	Violations   []Violation
}

// RunNodeKillCampaign executes the campaign. Violations are collected,
// not fatal; the error return is only for a cancelled context or a
// fleet that cannot be built.
func RunNodeKillCampaign(ctx context.Context, cfg NodeKillCampaignConfig) (NodeKillResult, error) {
	var res NodeKillResult
	if cfg.Seeds <= 0 {
		cfg.Seeds = 16
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 3
	}
	if cfg.Nodes < 2 {
		return res, fmt.Errorf("chaos: node-kill campaign needs at least 2 nodes, got %d", cfg.Nodes)
	}
	ncfg := cfg.Fleet
	if ncfg.Shards == 0 {
		ncfg = DefaultNodeKillFleet()
	}
	if ncfg.Sorties < 4 {
		return res, fmt.Errorf("chaos: node-kill mission needs >= 4 sorties for a kill window, got %d",
			ncfg.Sorties)
	}

	for seed := 0; seed < cfg.Seeds; seed++ {
		// A single-core box can starve the observer long enough that the
		// mission completes before the drawn kill boundary becomes
		// visible. That is a scheduling artifact, not a federation bug,
		// so a missed window earns one deterministic retry at the
		// earliest boundary (killAfter=1, maximum margin) before it
		// counts as a violation.
		for attempt := 0; attempt < 2; attempt++ {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			src := rng.New(cfg.BaseSeed).Split(fmt.Sprintf("node-kill-%d-%d", seed, attempt))
			v, stats, err := runNodeKill(ctx, seed, ncfg, cfg.Nodes, src, attempt)
			if err != nil {
				return res, err
			}
			if stats.missedWindow && attempt == 0 {
				if cfg.Logf != nil {
					cfg.Logf("node-kill seed %3d: kill@sortie %d window missed, retrying at boundary 1",
						seed, stats.killAfter)
				}
				continue
			}
			res.Runs++
			res.Failovers += stats.failovers
			res.Resumed += stats.resumed
			res.BitIdentical += stats.bitIdentical
			res.Violations = append(res.Violations, v...)
			if cfg.Logf != nil {
				cfg.Logf("node-kill seed %3d: kill@sortie %d, failovers=%d resumed=%d identical=%d, %d violations",
					seed, stats.killAfter, stats.failovers, stats.resumed, stats.bitIdentical, len(v))
			}
			break
		}
	}
	return res, nil
}

type nodeKillStats struct {
	killAfter    int
	failovers    int
	resumed      int
	bitIdentical int
	missedWindow bool
}

// fedNode is one in-process serving node: a fleet scheduler behind a
// real TCP listener, hard-killable mid-flight.
type fedNode struct {
	sched  *fleet.Scheduler
	srv    *http.Server
	url    string
	killed bool
}

func startFedNode(cfg fleet.Config) (*fedNode, error) {
	sched, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	sched.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sched.Stop(ctx)
		return nil, err
	}
	n := &fedNode{sched: sched, srv: &http.Server{Handler: fleet.NewHandler(sched)}, url: "http://" + ln.Addr().String()}
	go n.srv.Serve(ln)
	return n, nil
}

// kill is the chaos event: slam every socket shut and stop the shard
// workers, as a crashed process would. Subsequent probes and polls see
// connection refused immediately.
func (n *fedNode) kill() {
	if n.killed {
		return
	}
	n.killed = true
	n.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.sched.Stop(ctx)
}

// runNodeKill runs one seed: the uninterrupted twin first (so the
// federated run's kill window is not CPU-starved by a concurrent
// engine), then the federated fleet, the mid-flight kill, and the
// bit-identical diff.
func runNodeKill(ctx context.Context, seed int, ncfg fleet.Config, nodeCount int, src *rng.Source, attempt int) ([]Violation, nodeKillStats, error) {
	var stats nodeKillStats
	regions := []string{"corridor-east", "corridor-west", "dock"}

	missionSeed := src.Uint64()
	if missionSeed == 0 {
		missionSeed = 1 // a resume needs an explicit seed
	}
	region := regions[src.Intn(len(regions))]
	// Kill after a drawn replicated boundary, leaving at least three
	// sorties (~100 ms of flight) between the kill and mission end so
	// the node dies mid-flight, not post-completion. A retry run pins
	// the earliest boundary for maximum margin.
	stats.killAfter = 1 + src.Intn(ncfg.Sorties-3)
	if attempt > 0 {
		stats.killAfter = 1
	}
	// The tag sits just past the drawn region's relay — in range in
	// every region (a fixed coordinate would fall outside the short
	// dock, and an unreachable tag makes the mission trivially fast,
	// closing the kill window).
	relay := fleet.Regions[region].RelayPos
	tag := fleet.TagInput{ID: uint16(1 + seed), X: relay.X + 0.8, Y: relay.Y, Z: 1.0}
	const sarPoints = 48

	// The unkilled twin, flown in-process under the same node config.
	freq := fleet.Request{
		Region: region, Seed: missionSeed, SARPoints: sarPoints, Exclusive: true,
		Tags: []runtime.TagSpec{{ID: tag.ID, X: tag.X, Y: tag.Y, Z: tag.Z}},
	}
	twinEng, err := runtime.New(fleet.MissionConfig(ncfg, freq, 0))
	if err != nil {
		return nil, stats, fmt.Errorf("chaos: seed %d: %w", seed, err)
	}
	twin, err := twinEng.Run(ctx)
	if err != nil {
		return nil, stats, err
	}

	nodes := make([]*fedNode, nodeCount)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.kill()
			}
		}
	}()
	urls := make([]string, nodeCount)
	for i := range nodes {
		n, err := startFedNode(ncfg)
		if err != nil {
			return nil, stats, err
		}
		nodes[i], urls[i] = n, n.url
	}
	coord, err := federation.New(nodeKillFederation(urls))
	if err != nil {
		return nil, stats, err
	}
	coord.Start()
	defer coord.Stop()

	id, err := coord.Submit(ctx, fleet.SubmitRequest{
		Region: region, Seed: missionSeed, SARPoints: sarPoints,
		Tags: []fleet.TagInput{tag},
	})
	if err != nil {
		return nil, stats, fmt.Errorf("chaos: seed %d: submit: %w", seed, err)
	}

	// Wait for the drawn boundary to replicate, then kill the primary.
	var violations []Violation
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, _ := coord.Get(id)
		if v.ReplicatedSortie >= stats.killAfter && !v.Status.Terminal() {
			for _, n := range nodes {
				if n.url == v.Node {
					n.kill()
				}
			}
			break
		}
		if v.Status.Terminal() {
			stats.missedWindow = true
			violations = append(violations, Violation{seed, "kill-window",
				fmt.Sprintf("mission finished before sortie %d replicated (got %d)",
					stats.killAfter, v.ReplicatedSortie)})
			return violations, stats, nil
		}
		if time.Now().After(deadline) {
			violations = append(violations, Violation{seed, "kill-window",
				fmt.Sprintf("sortie %d never replicated (at %d)", stats.killAfter, v.ReplicatedSortie)})
			return violations, stats, nil
		}
		select {
		case <-ctx.Done():
			return violations, stats, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}

	select {
	case <-coord.Done(id):
	case <-ctx.Done():
		return violations, stats, ctx.Err()
	case <-time.After(120 * time.Second):
		violations = append(violations, Violation{seed, "mission-completion",
			"mission never finished after node kill"})
		return violations, stats, nil
	}

	// The resume consumed the successor's replica and completion dropped
	// the new successor's, so no live node may still hold one.
	for _, n := range nodes {
		if snap := n.sched.Metrics().Snapshot(); !n.killed && snap.ReplicasHeld != 0 {
			violations = append(violations, Violation{seed, "replica-leak",
				fmt.Sprintf("live node %s still holds %d replicas (%d bytes) after the mission finished",
					n.url, snap.ReplicasHeld, snap.ReplicaBytes)})
		}
	}

	view, _ := coord.Get(id)
	if view.Status != fleet.StatusDone {
		violations = append(violations, Violation{seed, "mission-completion",
			fmt.Sprintf("mission finished %s: %s", view.Status, view.Err)})
		return violations, stats, nil
	}
	stats.failovers = view.Failovers
	if view.Failovers != 1 {
		violations = append(violations, Violation{seed, "failover",
			fmt.Sprintf("kill produced %d failovers, want 1", view.Failovers)})
	}
	snap := coord.Metrics().Snapshot()
	stats.resumed = int(snap.Resumed)
	if snap.Resumed != 1 {
		violations = append(violations, Violation{seed, "checkpoint-resume",
			fmt.Sprintf("re-lease resumed %d missions from replicas (reran %d), want a resume",
				snap.Resumed, snap.Reran)})
	}

	// The checkpoint replica is the log's only copy: the resumed primary
	// must publish exactly the log the twin recorded.
	var finalLog []byte
	for _, n := range nodes {
		if n.url == view.Node && !n.killed {
			finalLog, _, _ = n.sched.Capture(view.RemoteID)
		}
	}
	if twinLog := twinEng.CaptureLog(); !bytes.Equal(finalLog, twinLog) {
		violations = append(violations, Violation{seed, "capture-log",
			fmt.Sprintf("final primary's capture log (%d bytes) differs from the twin's (%d bytes)",
				len(finalLog), len(twinLog))})
	}

	// Bit-identical means identical float64s and read counts, not
	// "close": the resumed engine replayed the exact rng streams the
	// twin drew.
	if view.Outcome == nil {
		violations = append(violations, Violation{seed, "zero-loss", "done mission has no outcome"})
		return violations, stats, nil
	}
	switch {
	case view.Outcome.LocOK != twin.LocOK:
		violations = append(violations, Violation{seed, "zero-loss",
			fmt.Sprintf("localization verdicts diverged: %v vs twin %v", view.Outcome.LocOK, twin.LocOK)})
	case view.Outcome.LocX != twin.LocX || view.Outcome.LocY != twin.LocY:
		violations = append(violations, Violation{seed, "zero-loss",
			fmt.Sprintf("localization diverged: (%v,%v) vs twin (%v,%v)",
				view.Outcome.LocX, view.Outcome.LocY, twin.LocX, twin.LocY)})
	case !tagReadsEqual(view.Outcome.TagReads, twinEng.TagReads()):
		violations = append(violations, Violation{seed, "zero-loss",
			fmt.Sprintf("tag reads diverged: %v vs twin %v", view.Outcome.TagReads, twinEng.TagReads())})
	default:
		stats.bitIdentical++
	}
	return violations, stats, nil
}

func tagReadsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
