// Package federation is RFly's multi-node serving tier: a coordinator
// that fronts N rfly-serve nodes over their existing HTTP/JSON protocol
// and keeps missions alive through node death. Three mechanisms carry
// the robustness story:
//
//   - Placement: a consistent-hash ring (ring.go) assigns each mission's
//     region to an owner node and a distinct successor. Adding or
//     removing a node moves only the arc it owned, so a fleet resize
//     does not reshuffle every region.
//
//   - Replication: as a mission flies, the coordinator long-polls the
//     owner for its next committed sortie (GET /v1/missions/{id}?after=N),
//     then copies that boundary's checkpoint (published live by the fleet
//     scheduler's CheckpointSink; a SAR mission's embeds its whole
//     capture log) to the successor's replica store as raw bytes: one
//     exchange per commit. The replica is always a boundary the runtime
//     codec can restore bit-exactly.
//
//   - Failure detection + failover: a heartbeat prober (detector.go)
//     tracks every node through alive → suspect → dead, piggybacking
//     each node's queue depth on the heartbeat (the "gossip" that feeds
//     load-aware shedding). When a node is declared dead, the
//     coordinator re-leases its in-flight missions on the successor from
//     the last replicated checkpoint: the resume submit names the
//     replica the successor already holds, so no checkpoint crosses the
//     wire again. When death beat the first replication, it re-runs them
//     from scratch under the same seed. Both
//     paths end in a localization solve bit-identical to an unkilled
//     run; internal/runtime/chaos's node-kill campaign holds that
//     property across seeds.
//
// The forwarding path is defensive end to end: every node call carries a
// timeout, transport errors retry with jittered exponential backoff, a
// 429 + Retry-After sheds to the next-least-loaded alive node, and when
// a majority of nodes is unreachable the coordinator degrades to
// read-only status serving instead of accepting work it cannot place.
package federation

import (
	"errors"
	"fmt"
	"time"
)

// Config shapes a Coordinator.
type Config struct {
	// Nodes are the fleet's base URLs (e.g. http://127.0.0.1:8081).
	Nodes []string
	// VNodes is the ring's virtual-node count per node; zero defaults
	// to 64.
	VNodes int
	// Seed drives every stochastic choice the coordinator makes (retry
	// jitter, derived mission seeds), so a federation run is replayable.
	Seed uint64

	// Heartbeat is the probe cadence; SuspectAfter and DeadAfter are how
	// long a node may go unheard before it is suspected and then
	// declared dead. Zeros default to 500ms / 1.5s / 5s.
	Heartbeat    time.Duration
	SuspectAfter time.Duration
	DeadAfter    time.Duration

	// PollEvery is the mission watch's pause after a failed exchange (an
	// unreachable node, a failed copy, or a long-poll that expired with
	// nothing new). The watch itself long-polls the primary, waiting up
	// to a Heartbeat for the next committed sortie. Zero defaults to
	// 100ms.
	PollEvery time.Duration

	// RequestTimeout bounds each node call; MaxRetries, BackoffBase and
	// BackoffMax shape the jittered exponential retry on transport
	// errors. Zeros default to 2s / 3 / 50ms / 1s.
	RequestTimeout time.Duration
	MaxRetries     int
	BackoffBase    time.Duration
	BackoffMax     time.Duration
}

func (c *Config) defaults() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("federation: need at least one node")
	}
	seen := make(map[string]bool, len(c.Nodes))
	for _, n := range c.Nodes {
		if n == "" {
			return fmt.Errorf("federation: empty node URL")
		}
		if seen[n] {
			return fmt.Errorf("federation: duplicate node %s", n)
		}
		seen[n] = true
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 500 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.Heartbeat
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 10 * c.Heartbeat
	}
	if c.DeadAfter < c.SuspectAfter {
		return fmt.Errorf("federation: DeadAfter %s below SuspectAfter %s", c.DeadAfter, c.SuspectAfter)
	}
	if c.PollEvery <= 0 {
		c.PollEvery = 100 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("federation: negative MaxRetries")
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	return nil
}

// ErrReadOnly is returned by Submit while the coordinator is degraded:
// a majority of nodes is unreachable, so it serves status reads but
// places no new work.
var ErrReadOnly = errors.New("federation: majority of nodes unreachable; serving read-only")

// ErrNoNode is returned when no alive node could accept a mission after
// shedding through the whole fleet.
var ErrNoNode = errors.New("federation: no alive node accepted the mission")
