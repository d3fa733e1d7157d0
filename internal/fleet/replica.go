package fleet

import (
	"fmt"
	"sync"
)

// Replica store: each serve node holds the sortie checkpoints of
// missions flying on a federation peer, so the coordinator can re-lease
// a dead node's in-flight work here from the last replicated boundary:
// its resume submit names the replica, and admission consumes it.
// The store is deliberately dumb — opaque bytes keyed by the
// coordinator's mission ID, bounded in count and total size so a
// misbehaving peer cannot balloon a node's memory. Overwriting an
// existing ID is the common case (each committed sortie supersedes the
// last), and a replica only ever moves monotonically forward: a stale
// sortie count is rejected, which protects the failover path from a
// delayed replication racing a newer one.

// replicaErr is every replica-store rejection (bad input, staleness,
// budget); the HTTP layer maps it to 4xx.
type replicaErr struct{ msg string }

func (e replicaErr) Error() string { return "fleet: " + e.msg }

// replica is one held checkpoint (a SAR mission's embeds its capture
// log). put keeps the bytes it is given rather than copying them, and
// nothing writes to them afterwards, so lookup shares them.
type replica struct {
	sortie int
	data   []byte
}

type replicaStore struct {
	mu       sync.Mutex
	maxCount int
	maxBytes int64
	bytes    int64
	m        map[string]replica
}

func newReplicaStore(maxCount int, maxBytes int64) *replicaStore {
	return &replicaStore{
		maxCount: maxCount,
		maxBytes: maxBytes,
		m:        make(map[string]replica),
	}
}

func (r *replicaStore) put(id string, sortie int, data []byte) error {
	if id == "" {
		return replicaErr{"replica needs a mission id"}
	}
	if len(data) == 0 {
		return replicaErr{"replica needs a non-empty checkpoint"}
	}
	if sortie <= 0 {
		return replicaErr{fmt.Sprintf("replica sortie count %d must be positive", sortie)}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old, exists := r.m[id]
	if exists && sortie < old.sortie {
		return replicaErr{fmt.Sprintf("stale replica for %s: held sortie %d, offered %d",
			id, old.sortie, sortie)}
	}
	newBytes := r.bytes + int64(len(data))
	if exists {
		newBytes -= int64(len(old.data))
	} else if len(r.m) >= r.maxCount {
		return replicaErr{fmt.Sprintf("replica store full (%d held)", len(r.m))}
	}
	if newBytes > r.maxBytes {
		return replicaErr{fmt.Sprintf("replica store over byte budget (%d + %d > %d)",
			r.bytes, len(data), r.maxBytes)}
	}
	r.m[id] = replica{sortie: sortie, data: data}
	r.bytes = newBytes
	return nil
}

func (r *replicaStore) lookup(id string) (replica, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep, ok := r.m[id]
	return rep, ok
}

func (r *replicaStore) drop(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep, ok := r.m[id]
	if !ok {
		return false
	}
	r.bytes -= int64(len(rep.data))
	delete(r.m, id)
	return true
}

func (r *replicaStore) stats() (held, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.m)), r.bytes
}
