package federation

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"rfly/internal/fleet"
	"rfly/internal/obs"
	"rfly/internal/rng"
)

// fedMission is the coordinator's record of one federated mission. All
// mutable fields are guarded by the coordinator's mutex; the watch
// goroutine is the only writer after submission.
type fedMission struct {
	id     string
	region string
	req    fleet.SubmitRequest // normalized: explicit seed, exclusive

	node     string // current primary (base URL)
	succ     string // replica holder
	remoteID string // primary's mission id

	// lastSortie is the latest sortie replicated to succ, and the count
	// the watch's long-poll waits to pass.
	lastSortie int

	status    fleet.Status
	outcome   *fleet.Outcome
	errMsg    string
	failovers int

	done chan struct{}
}

// MissionView is a read-only snapshot of a federated mission.
type MissionView struct {
	ID        string         `json:"id"`
	Region    string         `json:"region"`
	Node      string         `json:"node"`
	RemoteID  string         `json:"remote_id"`
	Status    fleet.Status   `json:"status"`
	Outcome   *fleet.Outcome `json:"outcome,omitempty"`
	Err       string         `json:"error,omitempty"`
	Failovers int            `json:"failovers"`
	// ReplicatedSortie is the newest boundary held by the successor
	// (for a SAR mission, its capture log through that sortie too: the
	// checkpoint embeds the log).
	ReplicatedSortie int `json:"replicated_sortie"`
}

// Coordinator fronts the node fleet. Build with New, Start it, Submit
// missions, and Stop when done.
type Coordinator struct {
	cfg     Config
	m       *Metrics
	det     *Detector
	jitter  *jitterSource
	clients map[string]*Client

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu          sync.Mutex
	ring        *Ring
	missions    map[string]*fedMission
	outstanding map[string]int // missions routed per node, not yet terminal
	seq         uint64
}

// New validates cfg and builds a stopped coordinator.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:         cfg,
		m:           &Metrics{},
		jitter:      &jitterSource{src: rng.New(cfg.Seed).Split("federation/jitter")},
		clients:     make(map[string]*Client, len(cfg.Nodes)),
		ctx:         ctx,
		cancel:      cancel,
		ring:        NewRing(cfg.VNodes),
		missions:    make(map[string]*fedMission),
		outstanding: make(map[string]int, len(cfg.Nodes)),
	}
	for _, n := range cfg.Nodes {
		c.clients[n] = NewClient(n, cfg, c.jitter)
		c.ring.Add(n)
	}
	c.det = NewDetector(cfg.Nodes, DetectorConfig{
		Heartbeat:    cfg.Heartbeat,
		SuspectAfter: cfg.SuspectAfter,
		DeadAfter:    cfg.DeadAfter,
		ProbeTimeout: cfg.DeadAfter,
		Probe: func(pctx context.Context, node string) (Load, error) {
			return c.clients[node].ProbeLoad(pctx)
		},
	})
	return c, nil
}

// Start launches the failure detector. (Mission watchers spawn per
// submission.)
func (c *Coordinator) Start() { c.det.Start() }

// Stop halts the detector and every mission watcher. In-flight missions
// keep flying on their nodes; the coordinator just stops tracking them.
func (c *Coordinator) Stop() {
	c.cancel()
	c.det.Stop()
	c.wg.Wait()
}

// Metrics returns the live counter set.
func (c *Coordinator) Metrics() *Metrics { return c.m }

// Detector exposes the failure detector (status serving, tests).
func (c *Coordinator) Detector() *Detector { return c.det }

// ReadOnly reports whether the coordinator is degraded: a majority of
// nodes unreachable means no new work is placed (reads still serve).
func (c *Coordinator) ReadOnly() bool {
	alive, total := c.det.AliveCount()
	return 2*alive <= total
}

// Submit places one mission on the fleet and returns its federation ID.
// The request is normalized before forwarding: an explicit seed (derived
// from the federation sequence when unset, so a failover re-run is
// reproducible) and exclusive admission (so the node-side checkpoint is
// a complete single-mission snapshot).
func (c *Coordinator) Submit(ctx context.Context, req fleet.SubmitRequest) (string, error) {
	if c.ReadOnly() {
		c.m.readOnlyRejected.Add(1)
		return "", ErrReadOnly
	}

	c.mu.Lock()
	c.seq++
	seq := c.seq
	c.mu.Unlock()

	req.Exclusive = true
	if req.Seed == 0 {
		req.Seed = 0x9E3779B97F4A7C15 ^ seq
	}
	m := &fedMission{
		id:     fmt.Sprintf("f-%06d", seq),
		region: req.Region,
		req:    req,
		status: fleet.StatusQueued,
		done:   make(chan struct{}),
	}

	rctx, span := obs.StartSpan(ctx, "fed.route")
	span.Str("mission", m.id).Str("region", m.region)
	node, remoteID, spilled, err := c.place(rctx, m.req, "")
	span.Str("node", node).Bool("spilled", spilled).Bool("failed", err != nil)
	span.End()
	if err != nil {
		return "", err
	}
	if spilled {
		c.m.spilled.Add(1)
	} else {
		c.m.routed.Add(1)
	}

	c.mu.Lock()
	m.node = node
	m.remoteID = remoteID
	m.succ = c.successorLocked(m.region, node)
	m.status = fleet.StatusRunning
	c.missions[m.id] = m
	c.outstanding[node]++
	c.mu.Unlock()

	c.wg.Add(1)
	go c.watch(m)
	return m.id, nil
}

// place forwards a submit to the best node: the region's ring owner
// first, then — on a busy or unreachable owner — the remaining alive
// nodes from least to most loaded (gossiped queue depth plus the
// coordinator's own outstanding count). exclude names a node never to
// try (the failover path's freshly dead primary).
func (c *Coordinator) place(ctx context.Context, req fleet.SubmitRequest, exclude string) (node, remoteID string, spilled bool, err error) {
	c.mu.Lock()
	owner, _, ok := c.ring.OwnerAndSuccessor(req.Region)
	c.mu.Unlock()
	if !ok {
		return "", "", false, ErrNoNode
	}

	order := c.shedOrder(owner, exclude)
	var lastErr error = ErrNoNode
	for i, n := range order {
		resp, err := c.clients[n].Submit(ctx, req)
		if err == nil {
			return n, resp.ID, i > 0 || n != owner, nil
		}
		lastErr = err
		var busy ErrNodeBusy
		if !errors.As(err, &busy) {
			// Transport errors and 5xx already retried inside the client;
			// spill onward. A 4xx is a request problem every node will
			// agree on — stop.
			var st ErrStatus
			if errors.As(err, &st) && st.Code < 500 {
				return "", "", i > 0, err
			}
		}
	}
	return "", "", true, fmt.Errorf("%w (last: %v)", ErrNoNode, lastErr)
}

// shedOrder is the forwarding preference: the owner (unless dead or
// excluded), then every other non-dead node sorted by load.
func (c *Coordinator) shedOrder(owner, exclude string) []string {
	c.mu.Lock()
	nodes := c.ring.Nodes()
	out := make([]string, 0, len(nodes))
	type loaded struct {
		node string
		load int64
	}
	var rest []loaded
	for _, n := range nodes {
		if n == exclude || c.det.State(n) == StateDead {
			continue
		}
		if n == owner {
			out = append(out, n)
			continue
		}
		rest = append(rest, loaded{n, c.det.Load(n).QueueDepth + int64(c.outstanding[n])})
	}
	c.mu.Unlock()
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].load < rest[j].load })
	for _, l := range rest {
		out = append(out, l.node)
	}
	return out
}

// successorLocked picks the replica holder for a mission flying on
// primary: the first non-dead node after the region's arc that is not
// the primary. Callers hold c.mu.
func (c *Coordinator) successorLocked(region, primary string) string {
	owner, succ, ok := c.ring.OwnerAndSuccessor(region)
	if !ok {
		return primary
	}
	if owner != primary {
		// Spilled mission: the owner itself is a fine replica holder as
		// long as it is not where the mission landed.
		if c.det.State(owner) != StateDead {
			return owner
		}
	}
	if succ != primary && c.det.State(succ) != StateDead {
		return succ
	}
	for _, n := range c.ring.Nodes() {
		if n != primary && c.det.State(n) != StateDead {
			return n
		}
	}
	return primary
}

// Get returns a mission snapshot.
func (c *Coordinator) Get(id string) (MissionView, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.missions[id]
	if !ok {
		return MissionView{}, false
	}
	return c.viewLocked(m), true
}

func (c *Coordinator) viewLocked(m *fedMission) MissionView {
	return MissionView{
		ID: m.id, Region: m.region, Node: m.node, RemoteID: m.remoteID,
		Status: m.status, Outcome: m.outcome, Err: m.errMsg,
		Failovers: m.failovers, ReplicatedSortie: m.lastSortie,
	}
}

// List returns every mission snapshot, newest first.
func (c *Coordinator) List() []MissionView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]MissionView, 0, len(c.missions))
	for _, m := range c.missions {
		out = append(out, c.viewLocked(m))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// Done returns a channel that closes when the mission terminates (nil
// for unknown IDs).
func (c *Coordinator) Done(id string) <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.missions[id]; ok {
		return m.done
	}
	return nil
}

// watch is a mission's life-support loop: long-poll the primary for its
// next committed sortie, replicate that boundary to the successor, and
// fail over when the detector declares the primary dead. Each exchange
// is one long-poll plus, when the committed count has advanced, one
// checkpoint copy (a SAR mission's checkpoint embeds its whole capture
// log, so the log needs no copy of its own); an exchange that fails or
// finds nothing new pauses PollEvery before the next, so an unreachable
// or stopping node is not polled in a tight loop.
func (c *Coordinator) watch(m *fedMission) {
	defer c.wg.Done()
	for {
		terminal, progressed := c.step(m)
		if terminal {
			return
		}
		if !progressed {
			select {
			case <-c.ctx.Done():
				return
			case <-time.After(c.cfg.PollEvery):
			}
		}
		if c.ctx.Err() != nil {
			return
		}
	}
}

// pollWait is how long one long-poll may wait on the node: at most a
// heartbeat, so a dead primary is noticed within one, and under half
// the request timeout, so the poll is never cut off as a failure.
func (c *Coordinator) pollWait() time.Duration {
	return min(c.cfg.Heartbeat, c.cfg.RequestTimeout/2)
}

// step runs one watch exchange, reporting whether the mission reached a
// terminal state and whether the exchange made progress.
func (c *Coordinator) step(m *fedMission) (terminal, progressed bool) {
	c.mu.Lock()
	if c.det.State(m.succ) == StateDead {
		// A dead successor holds nothing anyone can resume from: pick a
		// live one and copy it the primary's current boundary.
		m.succ = c.successorLocked(m.region, m.node)
		m.lastSortie = 0
	}
	node, remoteID, succ := m.node, m.remoteID, m.succ
	lastSortie := m.lastSortie
	c.mu.Unlock()

	if c.det.State(node) == StateDead {
		c.failover(m)
		return false, false
	}

	mr, err := c.clients[node].Await(c.ctx, remoteID, lastSortie, c.pollWait())
	if err != nil {
		// Unreachable but not yet declared dead: leave the suspicion
		// clock to the detector and try again after a pause.
		return false, false
	}
	if mr.Status.Terminal() {
		return c.finish(m, mr), true
	}
	if mr.Committed <= lastSortie {
		return false, false // the wait expired with nothing new
	}

	// Replicate the newly committed boundary. A checkpoint from a later
	// sortie than the poll answered for means a commit landed in between,
	// and it may be the final one, which is never copied: go back to the
	// poll, which answers for a later boundary only if it is not final.
	sortie, ckpt, err := c.clients[node].Checkpoint(c.ctx, remoteID)
	if err != nil || sortie != mr.Committed {
		return false, false
	}
	_, span := obs.StartSpan(c.ctx, "fed.replicate")
	span.Str("mission", m.id).Str("to", succ).Int("sortie", int64(sortie))
	perr := c.clients[succ].PutReplica(c.ctx, m.id, sortie, ckpt)
	span.Bool("failed", perr != nil).End()
	if perr != nil {
		return false, false
	}
	c.m.replicated.Add(1)
	if m.req.SARPoints > 0 {
		c.m.sarReplicated.Add(1)
	}
	c.mu.Lock()
	if sortie > m.lastSortie {
		m.lastSortie = sortie
	}
	c.mu.Unlock()
	return false, true
}

// finish records a terminal node-side status and closes the mission.
func (c *Coordinator) finish(m *fedMission, mr fleet.MissionResponse) bool {
	c.mu.Lock()
	m.status = mr.Status
	m.outcome = mr.Outcome
	m.errMsg = mr.Error
	c.outstanding[m.node]--
	succ := m.succ
	c.mu.Unlock()
	if mr.Status == fleet.StatusDone {
		c.m.completed.Add(1)
	} else {
		c.m.failed.Add(1)
	}
	// The replica outlived its purpose; reclaim the successor's budget.
	_ = c.clients[succ].DropReplica(c.ctx, m.id)
	close(m.done)
	return true
}

// failover re-leases a dead primary's mission. The successor already
// holds the last replicated checkpoint, so the mission resumes there:
// the submit names the replica by the mission's ID and the successor
// restores it from its own store. When the successor is dead too, holds
// no replica (death beat the first replication) or refuses it (a
// corrupt or config-drifted blob), the mission re-runs from scratch
// under the same seed on another node. Either way the runtime's
// determinism makes the final localization bit-identical to an unkilled
// run. A busy or unreachable successor, or a failed placement, leaves
// the mission pointed at the dead node; the next watch step retries.
func (c *Coordinator) failover(m *fedMission) {
	c.mu.Lock()
	dead, succ := m.node, m.succ
	c.mu.Unlock()

	_, span := obs.StartSpan(c.ctx, "fed.failover")
	span.Str("mission", m.id).Str("dead", dead).Str("replica", succ)
	defer span.End()

	var node, remoteID string
	var err error
	resumed := false
	if succ != dead && c.det.State(succ) != StateDead {
		req := m.req
		req.ResumeReplica = m.id
		var resp fleet.SubmitResponse
		resp, err = c.clients[succ].Submit(c.ctx, req)
		var st ErrStatus
		switch {
		case err == nil:
			node, remoteID, resumed = succ, resp.ID, true
		case !errors.As(err, &st) || st.Code >= 500:
			// Busy or unreachable: the replica is still held there.
			span.Bool("failed", true)
			return
		default:
			// The successor refused the replica. Discard it, so it neither
			// leaks nor, as a later sortie, rejects the re-run's boundaries
			// (best effort: a failed drop costs that node only budget).
			_ = c.clients[succ].DropReplica(c.ctx, m.id)
		}
	}
	if !resumed {
		node, remoteID, _, err = c.place(c.ctx, m.req, dead)
	}
	span.Str("node", node).Bool("resumed", resumed).Bool("failed", err != nil)
	if err != nil {
		return
	}

	c.m.failovers.Add(1)
	if resumed {
		c.m.resumed.Add(1)
	} else {
		c.m.reran.Add(1)
	}
	c.mu.Lock()
	c.outstanding[dead]--
	c.outstanding[node]++
	m.node = node
	m.remoteID = remoteID
	m.failovers++
	m.succ = c.successorLocked(m.region, node)
	if !resumed {
		m.lastSortie = 0 // the re-run commits its boundaries afresh
	}
	c.mu.Unlock()
}
