package federation

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"rfly/internal/fleet"
	"rfly/internal/runtime"
)

// testNode is one in-process rfly-serve: a fleet scheduler behind a real
// HTTP listener, killable mid-flight.
type testNode struct {
	sched *fleet.Scheduler
	ts    *httptest.Server
}

func (n *testNode) kill() {
	n.ts.CloseClientConnections()
	n.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n.sched.Stop(ctx)
}

func startNodes(t *testing.T, count int, fcfg fleet.Config) []*testNode {
	t.Helper()
	nodes := make([]*testNode, count)
	for i := range nodes {
		s, err := fleet.New(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		ts := httptest.NewServer(fleet.NewHandler(s))
		nodes[i] = &testNode{sched: s, ts: ts}
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Stop(ctx)
		})
	}
	return nodes
}

func urls(nodes []*testNode) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.ts.URL
	}
	return out
}

// fastFedConfig uses short timings so kill-and-recover paths run in
// test time — but not so short that CPU-starved heartbeats (the CI box
// may have one core, fully busy flying sorties) read as death. A real
// kill fails probes instantly, so DeadAfter is pure detection latency.
func fastFedConfig(nodeURLs []string) Config {
	return Config{
		Nodes:          nodeURLs,
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

func fedTags(id uint16) []fleet.TagInput {
	return []fleet.TagInput{{ID: id, X: 29, Y: 1.5, Z: 1.0}}
}

// owner returns which node URL the coordinator's ring assigns a region.
func owner(c *Coordinator, region string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	o, _, _ := c.ring.OwnerAndSuccessor(region)
	return o
}

func TestRouteAndComplete(t *testing.T) {
	nodes := startNodes(t, 2, fleet.Config{Shards: 1, Sorties: 1, TicksPerSortie: 4})
	c, err := New(fastFedConfig(urls(nodes)))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	regions := []string{"corridor-east", "corridor-west", "dock"}
	var ids []string
	for i, r := range regions {
		id, err := c.Submit(context.Background(), fleet.SubmitRequest{
			Region: r, Tags: fedTags(uint16(i + 1)),
		})
		if err != nil {
			t.Fatalf("submit %s: %v", r, err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		select {
		case <-c.Done(id):
		case <-time.After(30 * time.Second):
			t.Fatalf("mission %s never finished", id)
		}
		v, _ := c.Get(id)
		if v.Status != fleet.StatusDone {
			t.Fatalf("mission %s finished %s: %s", id, v.Status, v.Err)
		}
		if v.Outcome == nil {
			t.Fatalf("mission %s has no outcome", id)
		}
	}
	snap := c.Metrics().Snapshot()
	if snap.Routed+snap.Spilled != int64(len(ids)) || snap.Completed != int64(len(ids)) {
		t.Fatalf("metrics: %+v", snap)
	}
}

// TestShedSpillsToOtherNode drains a region's ring owner (every submit
// there 503s) and checks the mission spills to the survivor and still
// completes.
func TestShedSpillsToOtherNode(t *testing.T) {
	nodes := startNodes(t, 2, fleet.Config{Shards: 1, Sorties: 1, TicksPerSortie: 4})
	c, err := New(fastFedConfig(urls(nodes)))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	region := "dock"
	own := owner(c, region)
	for _, n := range nodes {
		if n.ts.URL == own {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			n.sched.Drain(ctx)
			cancel()
		}
	}
	id, err := c.Submit(context.Background(), fleet.SubmitRequest{Region: region, Tags: fedTags(9)})
	if err != nil {
		t.Fatalf("submit with drained owner: %v", err)
	}
	select {
	case <-c.Done(id):
	case <-time.After(30 * time.Second):
		t.Fatal("spilled mission never finished")
	}
	v, _ := c.Get(id)
	if v.Status != fleet.StatusDone {
		t.Fatalf("spilled mission finished %s: %s", v.Status, v.Err)
	}
	if v.Node == own {
		t.Fatal("mission placed on the drained owner")
	}
	if c.Metrics().Snapshot().Spilled != 1 {
		t.Fatalf("spilled counter %d, want 1", c.Metrics().Snapshot().Spilled)
	}
}

// TestFailoverNodeKill is the tentpole contract in miniature: kill a
// mission's node after its first checkpoint replicated, and require the
// failed-over mission to finish with a localization bit-identical to an
// in-process twin that was never interrupted.
func TestFailoverNodeKill(t *testing.T) {
	// Long enough that the kill lands mid-flight with sorties to spare,
	// even when the box is slow. The SAR solve dominates sortie time, so
	// a high aperture count is what buys the margin (~30ms per sortie).
	nodeCfg := fleet.Config{Shards: 1, Sorties: 8, TicksPerSortie: 64}
	nodes := startNodes(t, 3, nodeCfg)
	c, err := New(fastFedConfig(urls(nodes)))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	req := fleet.SubmitRequest{
		Region: "corridor-east", Tags: fedTags(3), Seed: 4242, SARPoints: 48,
	}
	id, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first replicated boundary, then kill the primary.
	waitFor(t, 30*time.Second, "first replication", func() bool {
		v, _ := c.Get(id)
		return v.ReplicatedSortie >= 1
	})
	v, _ := c.Get(id)
	primary := v.Node
	for _, n := range nodes {
		if n.ts.URL == primary {
			n.kill()
		}
	}

	select {
	case <-c.Done(id):
	case <-time.After(60 * time.Second):
		t.Fatal("mission never finished after node kill")
	}
	v, _ = c.Get(id)
	if v.Status != fleet.StatusDone {
		t.Fatalf("mission finished %s: %s", v.Status, v.Err)
	}
	if v.Failovers != 1 || v.Node == primary {
		t.Fatalf("failovers=%d node=%s (primary was %s)", v.Failovers, v.Node, primary)
	}
	if v.Outcome == nil || !v.Outcome.LocOK {
		t.Fatal("failed-over mission did not localize")
	}
	snap := c.Metrics().Snapshot()
	if snap.Failovers != 1 || snap.Resumed != 1 {
		t.Fatalf("failover metrics: %+v", snap)
	}
	// The resume consumed the successor's replica, and completion dropped
	// the one the new successor held: no node keeps a copy.
	for _, n := range nodes {
		if held := n.sched.Metrics().Snapshot().ReplicasHeld; held != 0 {
			t.Fatalf("node %s still holds %d replicas after completion", n.ts.URL, held)
		}
	}

	// The unkilled twin: same request flown in-process under the same
	// node config. Bit-identical means identical float64s, not "close".
	freq := fleet.Request{
		Region: req.Region, Seed: req.Seed, SARPoints: req.SARPoints, Exclusive: true,
	}
	for _, tg := range req.Tags {
		freq.Tags = append(freq.Tags, runtime.TagSpec{ID: tg.ID, X: tg.X, Y: tg.Y, Z: tg.Z})
	}
	eng, err := runtime.New(fleet.MissionConfig(nodeCfg, freq, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.LocOK {
		t.Fatal("twin did not localize")
	}
	if v.Outcome.LocX != res.LocX || v.Outcome.LocY != res.LocY {
		t.Fatalf("failed-over localization (%v,%v) != twin (%v,%v)",
			v.Outcome.LocX, v.Outcome.LocY, res.LocX, res.LocY)
	}
	twinReads := eng.TagReads()
	if len(v.Outcome.TagReads) != len(twinReads) {
		t.Fatalf("tag read lengths differ: %d vs %d", len(v.Outcome.TagReads), len(twinReads))
	}
	for i := range twinReads {
		if v.Outcome.TagReads[i] != twinReads[i] {
			t.Fatalf("tag %d reads differ: %d vs %d", i, v.Outcome.TagReads[i], twinReads[i])
		}
	}
}

// TestReadOnlyOnMajorityLoss kills two of three nodes and checks the
// coordinator refuses new work but keeps serving status reads.
func TestReadOnlyOnMajorityLoss(t *testing.T) {
	nodes := startNodes(t, 3, fleet.Config{Shards: 1, Sorties: 1, TicksPerSortie: 4})
	c, err := New(fastFedConfig(urls(nodes)))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	id, err := c.Submit(context.Background(), fleet.SubmitRequest{Region: "dock", Tags: fedTags(1)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done(id):
	case <-time.After(30 * time.Second):
		t.Fatal("pre-kill mission never finished")
	}

	nodes[0].kill()
	nodes[1].kill()
	waitFor(t, 10*time.Second, "read-only degradation", c.ReadOnly)

	if _, err := c.Submit(context.Background(), fleet.SubmitRequest{Region: "dock", Tags: fedTags(2)}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("degraded submit returned %v, want ErrReadOnly", err)
	}
	if c.Metrics().Snapshot().ReadOnlyRejected != 1 {
		t.Fatal("read-only rejection not counted")
	}
	// Reads still serve.
	if v, ok := c.Get(id); !ok || v.Status != fleet.StatusDone {
		t.Fatalf("status read failed while degraded: %+v ok=%v", v, ok)
	}
}
