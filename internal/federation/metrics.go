package federation

import "sync/atomic"

// Metrics is the coordinator's counter set, served at GET /metrics.
type Metrics struct {
	// routed counts missions placed on their ring owner; spilled counts
	// missions shed to another node (busy or dead owner).
	routed  atomic.Int64
	spilled atomic.Int64
	// readOnlyRejected counts submits refused while degraded.
	readOnlyRejected atomic.Int64

	// replicated counts checkpoint pushes to a successor; sarReplicated
	// counts those of SAR missions, each of which carries the mission's
	// whole capture log.
	replicated    atomic.Int64
	sarReplicated atomic.Int64
	// failovers counts node-death re-leases; resumed of those restored a
	// replicated checkpoint, reran flew from scratch under the same seed.
	failovers atomic.Int64
	resumed   atomic.Int64
	reran     atomic.Int64

	completed atomic.Int64
	failed    atomic.Int64
}

// MetricsSnapshot is the JSON rendering.
type MetricsSnapshot struct {
	Routed           int64 `json:"routed"`
	Spilled          int64 `json:"spilled"`
	ReadOnlyRejected int64 `json:"read_only_rejected"`
	Replicated       int64 `json:"replicated"`
	// CaptureReplicated counts capture-log copies to a successor: the
	// checkpoint replications of SAR missions. Every one carries the
	// whole log, so CaptureFullSyncs always equals it.
	CaptureReplicated int64 `json:"capture_replicated"`
	CaptureFullSyncs  int64 `json:"capture_full_syncs"`
	Failovers         int64 `json:"failovers"`
	Resumed           int64 `json:"resumed"`
	Reran             int64 `json:"reran"`
	Completed         int64 `json:"completed"`
	Failed            int64 `json:"failed"`
}

// Snapshot renders the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	sar := m.sarReplicated.Load()
	return MetricsSnapshot{
		Routed:            m.routed.Load(),
		Spilled:           m.spilled.Load(),
		ReadOnlyRejected:  m.readOnlyRejected.Load(),
		Replicated:        m.replicated.Load(),
		CaptureReplicated: sar,
		CaptureFullSyncs:  sar,
		Failovers:         m.failovers.Load(),
		Resumed:           m.resumed.Load(),
		Reran:             m.reran.Load(),
		Completed:         m.completed.Load(),
		Failed:            m.failed.Load(),
	}
}
