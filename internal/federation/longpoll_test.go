package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"rfly/internal/fleet"
)

// scriptedNode speaks the node protocol the coordinator uses — submit,
// the ?after=N long-poll, the raw checkpoint route, the replica routes
// and /metrics — for one mission whose sortie commits the test releases
// one at a time. Driving the coordinator from scripted commits, not
// from a flying engine, makes what it replicates exact rather than a
// race between sortie time and exchange time.
type scriptedNode struct {
	ts      *httptest.Server
	sorties int

	mu        sync.Mutex
	submitted bool
	committed int
	status    fleet.Status
	changed   chan struct{} // closed and replaced at every change
	// onCheckpoint, when set, runs once at the next checkpoint GET before
	// the handler reads the committed count: a commit it makes lands
	// between the long-poll's answer and the checkpoint the coordinator
	// fetches for it.
	onCheckpoint func()
	// refuseResume makes a submit naming a replica answer 400, as a node
	// whose replica does not restore would.
	refuseResume bool

	// puts receives the sortie of every replica PUT this node accepts,
	// drops every replica DELETE. Both are buffered past any one test's
	// sends, so a handler never blocks on a test that stopped reading.
	puts  chan int
	drops chan struct{}
}

func newScriptedNode(t *testing.T, sorties int) *scriptedNode {
	n := &scriptedNode{
		sorties: sorties,
		status:  fleet.StatusRunning,
		changed: make(chan struct{}),
		puts:    make(chan int, 16),
		drops:   make(chan struct{}, 4),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/missions", func(w http.ResponseWriter, r *http.Request) {
		var in fleet.SubmitRequest
		json.NewDecoder(r.Body).Decode(&in)
		n.mu.Lock()
		refuse := in.ResumeReplica != "" && n.refuseResume
		n.submitted = n.submitted || !refuse
		n.mu.Unlock()
		if refuse {
			writeJSON(w, http.StatusBadRequest, fleet.ErrorResponse{Error: "resume checkpoint rejected"})
			return
		}
		writeJSON(w, http.StatusAccepted, fleet.SubmitResponse{ID: "m-1", Status: fleet.StatusQueued})
	})
	mux.HandleFunc("GET /v1/missions/m-1", func(w http.ResponseWriter, r *http.Request) {
		after, _ := strconv.Atoi(r.URL.Query().Get("after"))
		ms, _ := strconv.Atoi(r.URL.Query().Get("wait_ms"))
		writeJSON(w, http.StatusOK, n.await(r.Context(), after, time.Duration(ms)*time.Millisecond))
	})
	mux.HandleFunc("GET /v1/missions/m-1/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		hook := n.onCheckpoint
		n.onCheckpoint = nil
		n.mu.Unlock()
		if hook != nil {
			hook()
		}
		n.mu.Lock()
		sortie := n.committed
		n.mu.Unlock()
		w.Header().Set(fleet.SortieHeader, strconv.Itoa(sortie))
		io.WriteString(w, fmt.Sprintf("ckpt-%d", sortie))
	})
	mux.HandleFunc("PUT /v1/replicas/{id}", func(w http.ResponseWriter, r *http.Request) {
		sortie, _ := strconv.Atoi(r.URL.Query().Get("sortie"))
		body, _ := io.ReadAll(r.Body)
		if string(body) != fmt.Sprintf("ckpt-%d", sortie) {
			writeJSON(w, http.StatusConflict, fleet.ErrorResponse{Error: "replica body does not match its sortie"})
			return
		}
		n.puts <- sortie
		writeJSON(w, http.StatusOK, map[string]any{"held": true, "sortie": sortie})
	})
	mux.HandleFunc("DELETE /v1/replicas/{id}", func(w http.ResponseWriter, r *http.Request) {
		n.drops <- struct{}{}
		writeJSON(w, http.StatusOK, map[string]any{"dropped": true})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, fleet.MetricsResponse{})
	})
	n.ts = httptest.NewServer(mux)
	t.Cleanup(n.ts.Close)
	return n
}

// await mirrors fleet.Scheduler.Await: answer once the committed count
// passes after (the final boundary excepted), the mission is terminal,
// the request ends, or wait elapses.
func (n *scriptedNode) await(ctx context.Context, after int, wait time.Duration) fleet.MissionResponse {
	expired := time.After(wait)
	for {
		n.mu.Lock()
		mr := fleet.MissionResponse{ID: "m-1", Status: n.status, Committed: n.committed}
		ready := n.status.Terminal() || (n.committed > after && n.committed < n.sorties)
		changed := n.changed
		n.mu.Unlock()
		if ready {
			return mr
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return mr
		case <-expired:
			return mr
		}
	}
}

// commit advances the mission to sortie k; finish marks it done.
func (n *scriptedNode) commit(k int) { n.set(func() { n.committed = k }) }
func (n *scriptedNode) finish()      { n.set(func() { n.status = fleet.StatusDone }) }

func (n *scriptedNode) set(f func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f()
	close(n.changed)
	n.changed = make(chan struct{})
}

func recvInt(t *testing.T, ch <-chan int, what string) int {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return 0
	}
}

// TestWatchReplicatesEveryBoundary: a federated 4-sortie mission has
// each of its 3 non-final boundaries replicated, in order, before it
// completes; the final boundary is never copied, and completion drops
// the replica.
func TestWatchReplicatesEveryBoundary(t *testing.T) {
	a, b := newScriptedNode(t, 4), newScriptedNode(t, 4)
	c, err := New(fastFedConfig([]string{a.ts.URL, b.ts.URL}))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	id, err := c.Submit(context.Background(), fleet.SubmitRequest{Region: "dock", Tags: fedTags(1)})
	if err != nil {
		t.Fatal(err)
	}
	primary, succ := a, b
	b.mu.Lock()
	if b.submitted {
		primary, succ = b, a
	}
	b.mu.Unlock()

	for k := 1; k <= 3; k++ {
		primary.commit(k)
		if got := recvInt(t, succ.puts, fmt.Sprintf("the sortie-%d replica", k)); got != k {
			t.Fatalf("replicated sortie %d after commit %d", got, k)
		}
	}
	primary.commit(4)
	primary.finish()
	select {
	case <-c.Done(id):
	case <-time.After(10 * time.Second):
		t.Fatal("mission never completed")
	}
	select {
	case <-succ.drops:
	case <-time.After(10 * time.Second):
		t.Fatal("completion did not drop the replica")
	}
	select {
	case k := <-succ.puts:
		t.Fatalf("replicated sortie %d after the last non-final boundary", k)
	default:
	}
	if v, _ := c.Get(id); v.Status != fleet.StatusDone || v.ReplicatedSortie != 3 {
		t.Fatalf("mission %s with replicated sortie %d, want done at 3", v.Status, v.ReplicatedSortie)
	}
	if got := c.Metrics().Snapshot().Replicated; got != 3 {
		t.Fatalf("replicated %d boundaries, want 3", got)
	}
}

// TestWatchNeverCopiesFinalCheckpoint: when the final sortie commits
// between the long-poll's answer for sortie 3 and the checkpoint GET,
// the fetched checkpoint is the final one. The coordinator must not copy
// it; it goes back to the poll, which never answers at the final
// boundary, and sees the mission complete with sortie 2 replicated.
func TestWatchNeverCopiesFinalCheckpoint(t *testing.T) {
	a, b := newScriptedNode(t, 4), newScriptedNode(t, 4)
	c, err := New(fastFedConfig([]string{a.ts.URL, b.ts.URL}))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	id, err := c.Submit(context.Background(), fleet.SubmitRequest{Region: "dock", Tags: fedTags(1)})
	if err != nil {
		t.Fatal(err)
	}
	primary, succ := a, b
	b.mu.Lock()
	if b.submitted {
		primary, succ = b, a
	}
	b.mu.Unlock()

	for k := 1; k <= 2; k++ {
		primary.commit(k)
		if got := recvInt(t, succ.puts, fmt.Sprintf("the sortie-%d replica", k)); got != k {
			t.Fatalf("replicated sortie %d after commit %d", got, k)
		}
	}
	raced := make(chan struct{})
	primary.mu.Lock()
	primary.onCheckpoint = func() {
		primary.commit(4)
		close(raced)
	}
	primary.mu.Unlock()
	primary.commit(3)
	select {
	case <-raced:
	case <-time.After(10 * time.Second):
		t.Fatal("the coordinator never fetched the sortie-3 checkpoint")
	}
	primary.finish()
	select {
	case <-c.Done(id):
	case <-time.After(10 * time.Second):
		t.Fatal("mission never completed")
	}
	select {
	case <-succ.drops:
	case <-time.After(10 * time.Second):
		t.Fatal("completion did not drop the replica")
	}
	select {
	case k := <-succ.puts:
		t.Fatalf("replicated sortie %d after the final sortie committed", k)
	default:
	}
	if v, _ := c.Get(id); v.Status != fleet.StatusDone || v.ReplicatedSortie != 2 {
		t.Fatalf("mission %s with replicated sortie %d, want done at 2", v.Status, v.ReplicatedSortie)
	}
}

// TestFederatedMissionReplicatesBeforeCompletion flies a real 4-sortie
// SAR mission through two nodes: at least one boundary replicates and
// the final one never does (how many of the three non-final ones the
// coordinator sees depends on sortie time against exchange time, which
// TestWatchReplicatesEveryBoundary takes out of play), and every copy
// is a SAR checkpoint carrying the whole capture log.
func TestFederatedMissionReplicatesBeforeCompletion(t *testing.T) {
	nodes := startNodes(t, 2, fleet.Config{Shards: 1, Sorties: 4, TicksPerSortie: 64})
	c, err := New(fastFedConfig(urls(nodes)))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	id, err := c.Submit(context.Background(), fleet.SubmitRequest{
		Region: "corridor-east", Tags: fedTags(5), Seed: 99, SARPoints: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done(id):
	case <-time.After(60 * time.Second):
		t.Fatal("mission never finished")
	}
	v, _ := c.Get(id)
	if v.Status != fleet.StatusDone {
		t.Fatalf("mission finished %s: %s", v.Status, v.Err)
	}
	snap := c.Metrics().Snapshot()
	if snap.Replicated < 1 || snap.Replicated > 3 || v.ReplicatedSortie > 3 {
		t.Fatalf("replicated %d boundaries up to sortie %d; want 1–3, never the final one",
			snap.Replicated, v.ReplicatedSortie)
	}
	if snap.CaptureReplicated != snap.Replicated || snap.CaptureFullSyncs != snap.Replicated {
		t.Fatalf("capture copies %d with %d full syncs over %d replications, want all three equal",
			snap.CaptureReplicated, snap.CaptureFullSyncs, snap.Replicated)
	}
}

// scriptedFleet starts a coordinator over three scripted nodes and
// submits one 4-sortie mission, returning the mission ID and its
// primary, successor and third node.
func scriptedFleet(t *testing.T) (c *Coordinator, id string, primary, succ, third *scriptedNode) {
	nodes := []*scriptedNode{newScriptedNode(t, 4), newScriptedNode(t, 4), newScriptedNode(t, 4)}
	byURL := make(map[string]*scriptedNode, len(nodes))
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		byURL[n.ts.URL], urls[i] = n, n.ts.URL
	}
	c, err := New(fastFedConfig(urls))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	id, err = c.Submit(context.Background(), fleet.SubmitRequest{Region: "dock", Tags: fedTags(1)})
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	primary, succ = byURL[c.missions[id].node], byURL[c.missions[id].succ]
	c.mu.Unlock()
	for _, n := range nodes {
		if n != primary && n != succ {
			third = n
		}
	}
	return c, id, primary, succ, third
}

// kill stops the node answering, and waits until the coordinator's
// detector has declared it dead.
func (n *scriptedNode) kill(t *testing.T, c *Coordinator) {
	n.ts.CloseClientConnections()
	n.ts.Close()
	waitFor(t, 10*time.Second, "the killed node declared dead", func() bool {
		return c.det.State(n.ts.URL) == StateDead
	})
}

// TestDeadSuccessorReplaced: when a mission's successor dies, the watch
// picks a live one, and the boundaries that commit from then on are
// copied to it; completion drops the replica there.
func TestDeadSuccessorReplaced(t *testing.T) {
	c, id, primary, succ, third := scriptedFleet(t)

	primary.commit(1)
	if got := recvInt(t, succ.puts, "the sortie-1 replica"); got != 1 {
		t.Fatalf("replicated sortie %d after commit 1", got)
	}
	succ.kill(t, c)

	primary.commit(2)
	// The new successor may first be sent the boundary the dead one held.
	for last := 0; last != 2; {
		got := recvInt(t, third.puts, "the sortie-2 replica on the new successor")
		if got <= last || got > 2 {
			t.Fatalf("new successor got sortie %d after %d", got, last)
		}
		last = got
	}
	primary.commit(4)
	primary.finish()
	select {
	case <-c.Done(id):
	case <-time.After(10 * time.Second):
		t.Fatal("mission never completed")
	}
	select {
	case <-third.drops:
	case <-time.After(10 * time.Second):
		t.Fatal("completion did not drop the new successor's replica")
	}
}

// TestFailoverRefusedReplicaReruns: when the primary dies and its
// successor refuses the replica, the coordinator drops that replica and
// re-runs the mission from scratch, and the re-run's first boundary is
// replicated.
func TestFailoverRefusedReplicaReruns(t *testing.T) {
	c, id, primary, succ, third := scriptedFleet(t)

	for k := 1; k <= 2; k++ {
		primary.commit(k)
		if got := recvInt(t, succ.puts, fmt.Sprintf("the sortie-%d replica", k)); got != k {
			t.Fatalf("replicated sortie %d after commit %d", got, k)
		}
	}
	succ.mu.Lock()
	succ.refuseResume = true
	succ.mu.Unlock()
	primary.kill(t, c)

	select {
	case <-succ.drops:
	case <-time.After(10 * time.Second):
		t.Fatal("the refused replica was never dropped")
	}
	waitFor(t, 10*time.Second, "the re-run placement", func() bool {
		v, _ := c.Get(id)
		return v.Failovers == 1
	})
	if snap := c.Metrics().Snapshot(); snap.Reran != 1 || snap.Resumed != 0 {
		t.Fatalf("failover reran %d and resumed %d, want one re-run", snap.Reran, snap.Resumed)
	}
	c.mu.Lock()
	m := c.missions[id]
	node, next := m.node, m.succ
	c.mu.Unlock()
	var rerun, holder *scriptedNode
	for _, n := range []*scriptedNode{primary, succ, third} {
		if n.ts.URL == node {
			rerun = n
		}
		if n.ts.URL == next {
			holder = n
		}
	}
	rerun.commit(1)
	if got := recvInt(t, holder.puts, "the re-run's sortie-1 replica"); got != 1 {
		t.Fatalf("replicated sortie %d after the re-run's first commit", got)
	}
}
