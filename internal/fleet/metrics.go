package fleet

import (
	"sync/atomic"
	"time"

	"rfly/internal/obs"
)

// Metrics are the service's expvar-style counters: monotonic atomics
// plus fixed-bucket histograms, cheap enough to bump on every request
// and rendered as one JSON document at GET /metrics. Everything here is
// cumulative since process start; rates are the scraper's job. The
// histograms are obs.Histogram instances (the generalized form of the
// fixed-bucket histogram that used to live here); HistSnapshot keeps
// the original ms-suffixed JSON shape so /metrics consumers see no
// change.

// histBoundsMs are the latency histogram bucket upper bounds, in
// milliseconds; the last bucket is unbounded.
var histBoundsMs = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000}

// histSnap renders an obs latency histogram in the fleet's JSON shape.
func histSnap(h *obs.Histogram) HistSnapshot {
	s := h.Snapshot()
	return HistSnapshot{
		Count:    s.Count,
		MeanMs:   s.Mean,
		P50Ms:    s.P50,
		P95Ms:    s.P95,
		P99Ms:    s.P99,
		BoundsMs: s.Bounds,
		Buckets:  s.Buckets,
	}
}

// HistSnapshot is a histogram's JSON rendering. Quantiles are bucket
// upper bounds (conservative estimates).
type HistSnapshot struct {
	Count    int64     `json:"count"`
	MeanMs   float64   `json:"mean_ms"`
	P50Ms    float64   `json:"p50_ms"`
	P95Ms    float64   `json:"p95_ms"`
	P99Ms    float64   `json:"p99_ms"`
	BoundsMs []float64 `json:"bounds_ms"`
	Buckets  []int64   `json:"buckets"`
}

// Metrics is the scheduler's counter set.
type Metrics struct {
	start time.Time

	submitted atomic.Int64
	accepted  atomic.Int64
	rejected  atomic.Int64 // backpressure rejections (429s)
	draining  atomic.Int64 // submissions refused because draining
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	expired   atomic.Int64

	queueDepth atomic.Int64

	batches atomic.Int64
	// batchedRequests counts requests that shared a sortie with at
	// least one other request — the coalescing win.
	batchedRequests atomic.Int64
	batchSizeSum    atomic.Int64

	// checkpoints counts sortie-boundary checkpoints published for
	// replication; resumed counts missions restored from a peer's
	// checkpoint (the failover landings).
	checkpoints atomic.Int64
	resumed     atomic.Int64

	// replicaPuts counts accepted replica writes; replicasHeld and
	// replicaBytes gauge the store.
	replicaPuts  atomic.Int64
	replicasHeld atomic.Int64
	replicaBytes atomic.Int64

	// capturePubs counts capture-log publications at sortie commits;
	// replays counts replay solves served from held logs.
	capturePubs atomic.Int64
	replays     atomic.Int64

	shardBusyNs []atomic.Int64

	wait *obs.Histogram // admission → sortie start
	run  *obs.Histogram // sortie start → finish
	e2e  *obs.Histogram // admission → terminal
}

func newMetrics(shards int) *Metrics {
	return &Metrics{
		start:       time.Now(),
		shardBusyNs: make([]atomic.Int64, shards),
		wait:        obs.NewHistogram(histBoundsMs),
		run:         obs.NewHistogram(histBoundsMs),
		e2e:         obs.NewHistogram(histBoundsMs),
	}
}

// Snapshot is the /metrics JSON document.
type Snapshot struct {
	UptimeS    float64 `json:"uptime_s"`
	Shards     int     `json:"shards"`
	QueueDepth int64   `json:"queue_depth"`

	Submitted        int64 `json:"submitted"`
	Accepted         int64 `json:"accepted"`
	Rejected         int64 `json:"rejected"`
	RejectedDraining int64 `json:"rejected_draining"`
	Completed        int64 `json:"completed"`
	Failed           int64 `json:"failed"`
	Canceled         int64 `json:"canceled"`
	Expired          int64 `json:"expired"`

	Batches         int64   `json:"batches"`
	BatchedRequests int64   `json:"batched_requests"`
	MeanBatchSize   float64 `json:"mean_batch_size"`

	Checkpoints  int64 `json:"checkpoints"`
	Resumed      int64 `json:"resumed"`
	ReplicaPuts  int64 `json:"replica_puts"`
	ReplicasHeld int64 `json:"replicas_held"`
	ReplicaBytes int64 `json:"replica_bytes"`

	CapturePublications int64 `json:"capture_publications"`
	Replays             int64 `json:"replays"`

	// ShardBusyPct is the fraction of the fleet's shard-seconds spent
	// flying sorties since start.
	ShardBusyPct float64   `json:"shard_busy_pct"`
	ShardBusyS   []float64 `json:"shard_busy_s"`

	WaitLatency HistSnapshot `json:"wait_latency"`
	RunLatency  HistSnapshot `json:"run_latency"`
	E2ELatency  HistSnapshot `json:"e2e_latency"`
}

// Snapshot renders the counters.
func (m *Metrics) Snapshot() Snapshot {
	up := time.Since(m.start).Seconds()
	s := Snapshot{
		UptimeS:          up,
		Shards:           len(m.shardBusyNs),
		QueueDepth:       m.queueDepth.Load(),
		Submitted:        m.submitted.Load(),
		Accepted:         m.accepted.Load(),
		Rejected:         m.rejected.Load(),
		RejectedDraining: m.draining.Load(),
		Completed:        m.completed.Load(),
		Failed:           m.failed.Load(),
		Canceled:         m.canceled.Load(),
		Expired:          m.expired.Load(),
		Batches:          m.batches.Load(),
		BatchedRequests:  m.batchedRequests.Load(),
		Checkpoints:      m.checkpoints.Load(),
		Resumed:          m.resumed.Load(),
		ReplicaPuts:      m.replicaPuts.Load(),
		ReplicasHeld:     m.replicasHeld.Load(),
		ReplicaBytes:     m.replicaBytes.Load(),

		CapturePublications: m.capturePubs.Load(),
		Replays:             m.replays.Load(),
		WaitLatency:         histSnap(m.wait),
		RunLatency:          histSnap(m.run),
		E2ELatency:          histSnap(m.e2e),
	}
	if s.Batches > 0 {
		s.MeanBatchSize = float64(m.batchSizeSum.Load()) / float64(s.Batches)
	}
	var busy float64
	s.ShardBusyS = make([]float64, len(m.shardBusyNs))
	for i := range m.shardBusyNs {
		sec := float64(m.shardBusyNs[i].Load()) / 1e9
		s.ShardBusyS[i] = sec
		busy += sec
	}
	if up > 0 && len(m.shardBusyNs) > 0 {
		s.ShardBusyPct = 100 * busy / (up * float64(len(m.shardBusyNs)))
	}
	return s
}
