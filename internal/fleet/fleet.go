package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rfly/internal/obs"
	"rfly/internal/runtime"
)

// Config shapes the scheduler.
type Config struct {
	// Shards is the worker-pool size: how many sorties fly concurrently.
	Shards int
	// QueueCap bounds the admission queue; a full queue rejects with
	// ErrBacklog. Zero defaults to 16×Shards.
	QueueCap int
	// MaxBatch caps how many compatible requests one sortie serves.
	MaxBatch int
	// Sorties and TicksPerSortie shape each service mission; the service
	// flies short missions so per-request latency stays bounded.
	Sorties        int
	TicksPerSortie int
}

// Fixed service bounds: every node enforces the same ones.
const (
	// maxTagsPerRequest bounds a single request's tag list.
	maxTagsPerRequest = 8
	// maxMissionTime is a hard per-batch wall-clock bound applied even
	// when no member carries a deadline.
	maxMissionTime = 30 * time.Second
	// maxReplicas and maxReplicaBytes bound the node's replica store
	// (the checkpoints it holds on behalf of federation peers).
	maxReplicas     = 256
	maxReplicaBytes = 16 << 20
)

func (c *Config) defaults() error {
	if c.Shards <= 0 {
		return fmt.Errorf("fleet: need a positive shard count, got %d", c.Shards)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 16 * c.Shards
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.Sorties <= 0 {
		c.Sorties = 1
	}
	if c.TicksPerSortie <= 0 {
		c.TicksPerSortie = 12
	}
	return nil
}

// batchState tracks one in-flight sortie's membership so cancellation
// can propagate: when every member has been canceled, the batch context
// is canceled and the engine rolls back at the next tick.
type batchState struct {
	cancel context.CancelFunc
	live   int
}

// Scheduler owns the admission queue, the batcher, and the shard
// workers. Build with New, then call Start to launch the workers (the
// split lets tests and the experiments scenario pre-fill the queue so
// coalescing is deterministic).
type Scheduler struct {
	cfg Config
	m   *Metrics

	// runCtx gates in-flight sorties: Drain leaves it alone (in-flight
	// work finishes), Stop cancels it.
	runCtx  context.Context
	runStop context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	queue    prioQueue
	records  map[string]*mission
	seq      uint64
	started  bool
	draining bool
	// ewmaBatchMs is the smoothed batch service time feeding the
	// Retry-After estimate.
	ewmaBatchMs float64
	// drain holds each shard's checkpoint at the end of its most recent
	// batch — the artifact a graceful drain persists (ShardCheckpoint).
	drain [][]byte

	// replicas holds checkpoints this node keeps on behalf of
	// federation peers. The local scheduler reads one only when a resume
	// submit names it (Request.ResumeReplica): the coordinator re-leasing
	// a dead primary's mission here.
	replicas *replicaStore

	wg sync.WaitGroup
}

// New validates cfg and builds a stopped scheduler.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:      cfg,
		m:        newMetrics(cfg.Shards),
		runCtx:   ctx,
		runStop:  cancel,
		records:  make(map[string]*mission),
		drain:    make([][]byte, cfg.Shards),
		replicas: newReplicaStore(maxReplicas, maxReplicaBytes),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Config returns the (defaulted) scheduler config.
func (s *Scheduler) Config() Config { return s.cfg }

// Metrics returns the live counter set.
func (s *Scheduler) Metrics() *Metrics { return s.m }

// ShardCheckpoint returns the checkpoint shard's engine stood at when
// its most recent batch ended, or nil if the shard has never flown one
// (or i is out of range). A restarted service resumes the shard's last
// mission from it. The bytes are shared and must not be modified.
func (s *Scheduler) ShardCheckpoint(i int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.drain) {
		return nil
	}
	return s.drain[i]
}

// Start launches the shard workers. Starting twice is a no-op.
func (s *Scheduler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Shards; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
}

// Submit admits a request. It returns the mission ID immediately; the
// caller polls Get (or waits on Done) for the outcome. A full queue
// fails fast with ErrBacklog; a draining scheduler with ErrDraining. A
// request naming a held replica (ResumeReplica) resumes from it, and
// the store drops the replica once the mission is admitted; a refused
// submit leaves it held.
func (s *Scheduler) Submit(req Request) (string, error) {
	if req.ResumeReplica != "" {
		rep, ok := s.replicas.lookup(req.ResumeReplica)
		if !ok {
			return "", fmt.Errorf("fleet: no replica held under resume_replica %q", req.ResumeReplica)
		}
		req.Resume = rep.data
	}
	if err := req.validate(maxTagsPerRequest); err != nil {
		return "", err
	}
	if len(req.Resume) > 0 {
		// Reject a corrupt or mismatched checkpoint at admission, not on
		// the shard: a dry-run Restore against the exact config the
		// mission would fly surfaces truncation, CRC damage, and config
		// drift as a 400, and the coordinator falls back to a fresh
		// same-seed run.
		if _, err := runtime.Restore(MissionConfig(s.cfg, req, 0), req.Resume); err != nil {
			return "", fmt.Errorf("fleet: resume checkpoint rejected: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.submitted.Add(1)
	if s.draining {
		s.m.draining.Add(1)
		return "", ErrDraining{}
	}
	if s.queue.Len() >= s.cfg.QueueCap {
		s.m.rejected.Add(1)
		return "", ErrBacklog{Depth: s.queue.Len(), RetryAfter: s.retryAfterLocked()}
	}
	// The mission now carries the replica's bytes. Dropping it here, under
	// the admission lock, also admits at most one resume per replica.
	if req.ResumeReplica != "" && !s.DropReplica(req.ResumeReplica) {
		return "", fmt.Errorf("fleet: replica %q was resumed concurrently", req.ResumeReplica)
	}
	s.seq++
	m := &mission{
		id:        fmt.Sprintf("m-%06d", s.seq),
		seq:       s.seq,
		req:       req,
		status:    StatusQueued,
		submitted: time.Now(),
		shard:     -1,
		done:      make(chan struct{}),
	}
	s.records[m.id] = m
	s.queue.push(m)
	s.m.accepted.Add(1)
	s.m.queueDepth.Store(int64(s.queue.Len()))
	s.cond.Signal()
	return m.id, nil
}

// retryAfterLocked estimates how long until a queue slot frees: the
// time for the shards to chew through the current backlog, floored at
// one second. Callers hold s.mu.
func (s *Scheduler) retryAfterLocked() time.Duration {
	batchMs := s.ewmaBatchMs
	if batchMs <= 0 {
		batchMs = 50 // cold-start guess, ~one small mission
	}
	perSlot := batchMs / float64(s.cfg.MaxBatch)
	est := time.Duration(float64(s.queue.Len()) * perSlot / float64(s.cfg.Shards) * float64(time.Millisecond))
	if est < time.Second {
		est = time.Second
	}
	return est.Round(time.Second)
}

// Get returns a snapshot of the mission record.
func (s *Scheduler) Get(id string) (View, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.records[id]
	if !ok {
		return View{}, false
	}
	return m.view(), true
}

// Await is Get as a long-poll: it waits until the mission's committed
// sortie count passes after, the mission is terminal, ctx ends, the
// scheduler stops, or wait elapses, and then returns the record as it
// stands. A mission's final boundary does not count as passing: the
// batch resolves right after it, so a waiter there returns with the
// terminal status instead, even past wait (a caller replicating
// boundaries would otherwise copy one the mission's completion makes
// useless). ok is false for an unknown ID.
func (s *Scheduler) Await(ctx context.Context, id string, after int, wait time.Duration) (View, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.records[id]
	if !ok {
		return View{}, false
	}
	var timer *time.Timer
	expired := false
	for wait > 0 && !m.status.Terminal() && ctx.Err() == nil && s.runCtx.Err() == nil {
		resolving := m.committed >= s.cfg.Sorties
		if !resolving && (m.committed > after || expired) {
			break
		}
		if timer == nil {
			timer = time.NewTimer(wait)
			defer timer.Stop()
		}
		var timeout <-chan time.Time
		if !expired && !resolving {
			timeout = timer.C
		}
		if m.wake == nil {
			m.wake = make(chan struct{})
		}
		wake := m.wake
		s.mu.Unlock()
		select {
		case <-wake:
		case <-timeout:
			expired = true
		case <-m.done:
		case <-ctx.Done():
		case <-s.runCtx.Done():
		}
		s.mu.Lock()
	}
	return m.view(), true
}

// Trace returns the mission's flight-recorder spans: the trace of the
// batch sortie that served it, captured when the batch resolved. The
// second return distinguishes "unknown mission" and "no trace yet"
// (ok=false) from an empty-but-present trace. The slice is shared with
// other members of the same batch; callers must not mutate it.
func (s *Scheduler) Trace(id string) ([]obs.SpanRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.records[id]
	if !ok || m.trace == nil {
		return nil, false
	}
	return m.trace, true
}

// Checkpoint returns the mission's latest published sortie-boundary
// checkpoint and how many sorties it covers. ok is false until the
// mission's engine has committed its first sortie (there is nothing to
// replicate before that; a fresh same-seed re-run is bit-identical
// anyway). The returned slice is the engine's own published blob;
// callers must not mutate it.
func (s *Scheduler) Checkpoint(id string) (data []byte, sortie int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, okk := s.records[id]
	if !okk || m.ckpt == nil {
		return nil, 0, false
	}
	return m.ckpt, m.committed, true
}

// Capture returns the mission's latest published capture log and how
// many sorties it covers. ok is false until the mission's engine has
// committed a SAR-bearing sortie (inventory-only missions never publish
// one). The returned slice is the engine's own published snapshot;
// callers must not mutate it.
func (s *Scheduler) Capture(id string) (data []byte, sortie int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, okk := s.records[id]
	if !okk || m.capture == nil {
		return nil, 0, false
	}
	return m.capture, m.committed, true
}

// PutReplica stores a checkpoint this node holds on behalf of a
// federation peer. It never inspects the bytes — a replica is opaque
// until a resume submit names it (Request.ResumeReplica). The store
// keeps data itself; the caller must not modify it afterwards.
func (s *Scheduler) PutReplica(id string, sortie int, data []byte) error {
	err := s.replicas.put(id, sortie, data)
	if err == nil {
		s.m.replicaPuts.Add(1)
		s.storeReplicaGauges()
	}
	return err
}

// DropReplica discards a held replica, reporting whether it existed.
func (s *Scheduler) DropReplica(id string) bool {
	ok := s.replicas.drop(id)
	if ok {
		s.storeReplicaGauges()
	}
	return ok
}

func (s *Scheduler) storeReplicaGauges() {
	held, bytes := s.replicas.stats()
	s.m.replicasHeld.Store(held)
	s.m.replicaBytes.Store(bytes)
}

// Done returns a channel that closes when the mission reaches a
// terminal status (nil if the ID is unknown).
func (s *Scheduler) Done(id string) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.records[id]; ok {
		return m.done
	}
	return nil
}

// Cancel cancels a mission. A queued mission is dequeued lazily; for a
// running one, cancellation takes effect when every member of its batch
// has canceled (the sortie serves the remaining tenants otherwise). It
// reports whether the mission existed and was not already terminal.
func (s *Scheduler) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.records[id]
	if !ok || m.status.Terminal() || m.canceled {
		return false
	}
	m.canceled = true
	if m.status == StatusQueued {
		s.finishLocked(m, StatusCanceled, nil, "canceled by client")
		return true
	}
	// Running: drop out of the batch; the last member out cancels the
	// sortie context. Status resolves when the batch returns.
	if m.batch != nil {
		m.batch.live--
		if m.batch.live <= 0 {
			m.batch.cancel()
		}
	}
	return true
}

// finishLocked moves a record to a terminal state. Callers hold s.mu.
func (s *Scheduler) finishLocked(m *mission, st Status, out *Outcome, errMsg string) {
	if m.status.Terminal() {
		return
	}
	m.status = st
	m.outcome = out
	m.errMsg = errMsg
	m.finished = time.Now()
	m.batch = nil
	switch st {
	case StatusDone:
		s.m.completed.Add(1)
	case StatusFailed:
		s.m.failed.Add(1)
	case StatusCanceled:
		s.m.canceled.Add(1)
	case StatusExpired:
		s.m.expired.Add(1)
	}
	if !m.submitted.IsZero() {
		s.m.e2e.ObserveDuration(m.finished.Sub(m.submitted))
	}
	close(m.done)
}

// Draining reports whether a drain has begun.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission, cancels the queued backlog (a queued request
// has not flown; the client retries against the next instance), lets
// in-flight sorties finish and checkpoint, and waits for the workers to
// exit — bounded by ctx.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for {
		m := s.queue.pop()
		if m == nil {
			break
		}
		if !m.status.Terminal() {
			s.finishLocked(m, StatusCanceled, nil, "scheduler draining")
		}
	}
	s.m.queueDepth.Store(0)
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fleet: drain timed out with sorties in flight: %w", ctx.Err())
	}
}

// Stop hard-stops the scheduler: in-flight sorties are canceled (their
// engines roll back to the last sortie boundary) and the workers are
// drained.
func (s *Scheduler) Stop(ctx context.Context) error {
	s.runStop()
	return s.Drain(ctx)
}

// nextBatch blocks until work is available, then forms a batch: the
// best queued mission plus up to MaxBatch-1 compatible ones. It returns
// nil when the scheduler is draining and the queue is empty.
func (s *Scheduler) nextBatch() []*mission {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for s.queue.Len() == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.queue.Len() == 0 && s.draining {
			return nil
		}
		head := s.queue.pop()
		if head == nil {
			continue
		}
		if head.canceled || head.status.Terminal() {
			// Reaped lazily; Cancel already finished the record.
			s.m.queueDepth.Store(int64(s.queue.Len()))
			continue
		}
		if dl := head.req.Deadline; !dl.IsZero() && time.Now().After(dl) {
			s.finishLocked(head, StatusExpired, nil, "deadline passed while queued")
			s.m.queueDepth.Store(int64(s.queue.Len()))
			continue
		}
		batch := []*mission{head}
		if !head.req.exclusive() {
			batch = append(batch,
				s.queue.takeCompatible(head.req.batchKey(), s.cfg.MaxBatch-1)...)
		}
		s.m.queueDepth.Store(int64(s.queue.Len()))
		return batch
	}
}

// worker is one shard's dispatch loop.
func (s *Scheduler) worker(shard int) {
	defer s.wg.Done()
	for {
		batch := s.nextBatch()
		if batch == nil {
			return
		}
		s.runBatch(shard, batch)
	}
}
