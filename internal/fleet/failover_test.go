package fleet

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rfly/internal/runtime"
)

// Tests for the federation-facing fleet surface: exclusive admission,
// live checkpoint publication, the resume lease path, and the replica
// store. These are the node-side halves of the failover contract; the
// coordinator-side halves live in internal/federation.

// multiSortieConfig flies enough sorties that a mid-flight checkpoint
// exists before the mission ends.
func multiSortieConfig(shards int) Config {
	return Config{Shards: shards, Sorties: 3, TicksPerSortie: 4}
}

// TestExclusiveNeverCoalesces queues an exclusive request alongside
// batchable ones with the same batch key on a stopped scheduler, then
// starts it: the exclusive mission must fly alone.
func TestExclusiveNeverCoalesces(t *testing.T) {
	s, err := New(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	excl := submitOK(t, s, Request{Region: "dock", Tags: testTags(1), Exclusive: true, Priority: 1})
	var others []string
	for i := 0; i < 3; i++ {
		others = append(others, submitOK(t, s, Request{Region: "dock", Tags: testTags(uint16(i + 2))}))
	}
	s.Start()
	defer s.Stop(context.Background())

	if v := waitDone(t, s, excl); v.BatchSize != 1 {
		t.Fatalf("exclusive mission flew in a batch of %d", v.BatchSize)
	}
	for _, id := range others {
		if v := waitDone(t, s, id); v.Status != StatusDone {
			t.Fatalf("batchable mission %s finished %s: %s", id, v.Status, v.Err)
		}
	}
	// And an exclusive head must not pull compatible followers in either:
	// the three batchable missions were free to coalesce among themselves
	// only.
	if got := s.Metrics().Snapshot().MeanBatchSize; got > 3 {
		t.Fatalf("mean batch size %.1f implies the exclusive mission coalesced", got)
	}
}

// TestCheckpointPublication flies an exclusive multi-sortie mission and
// asserts the published checkpoint advances to the full sortie count,
// with bytes a fresh engine accepts.
func TestCheckpointPublication(t *testing.T) {
	s, err := New(multiSortieConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop(context.Background())

	req := Request{Region: "dock", Tags: testTags(7), Seed: 42, Exclusive: true}
	id := submitOK(t, s, req)
	if v := waitDone(t, s, id); v.Status != StatusDone {
		t.Fatalf("mission finished %s: %s", v.Status, v.Err)
	}
	data, sortie, ok := s.Checkpoint(id)
	if !ok {
		t.Fatal("no checkpoint published for a completed mission")
	}
	if sortie != 3 {
		t.Fatalf("final checkpoint covers %d sorties, want 3", sortie)
	}
	if _, err := runtime.Restore(MissionConfig(s.Config(), req, 0), data); err != nil {
		t.Fatalf("published checkpoint does not restore: %v", err)
	}
	if got := s.Metrics().Snapshot().Checkpoints; got != 3 {
		t.Fatalf("checkpoint counter %d, want 3", got)
	}
}

// TestResumeBitIdentical is the node-side failover contract: fly a
// mission to completion on one scheduler, take its first-sortie
// checkpoint, resume it on a second scheduler, and require the resumed
// localization to be bit-identical to the uninterrupted run.
func TestResumeBitIdentical(t *testing.T) {
	cfg := multiSortieConfig(1)
	req := Request{Region: "corridor-east", Tags: testTags(3), Seed: 99, Exclusive: true, SARPoints: 6}

	// Primary: capture the mid-flight checkpoint via the live sink.
	primary, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	primary.Start()
	id := submitOK(t, primary, req)
	// Poll for the first committed checkpoint while the mission flies
	// (it may already be past sortie 1; any boundary works).
	var ckpt []byte
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if data, _, ok := primary.Checkpoint(id); ok {
			ckpt = data
			break
		}
		time.Sleep(time.Millisecond)
	}
	if ckpt == nil {
		t.Fatal("no checkpoint appeared while the mission flew")
	}
	v := waitDone(t, primary, id)
	if v.Status != StatusDone || v.Outcome == nil || !v.Outcome.LocOK {
		t.Fatalf("primary mission did not localize: %+v", v)
	}
	primaryLog, _, ok := primary.Capture(id)
	if !ok {
		t.Fatal("primary published no capture log")
	}
	primary.Stop(context.Background())

	// Replica node: resume from the captured boundary.
	replica, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replica.Start()
	defer replica.Stop(context.Background())
	rreq := req
	rreq.Resume = ckpt
	rid := submitOK(t, replica, rreq)
	rv := waitDone(t, replica, rid)
	if rv.Status != StatusDone || rv.Outcome == nil || !rv.Outcome.LocOK {
		t.Fatalf("resumed mission did not localize: %+v", rv)
	}
	if rv.Outcome.LocX != v.Outcome.LocX || rv.Outcome.LocY != v.Outcome.LocY {
		t.Fatalf("resumed localization (%v,%v) != primary (%v,%v)",
			rv.Outcome.LocX, rv.Outcome.LocY, v.Outcome.LocX, v.Outcome.LocY)
	}
	if len(rv.Outcome.TagReads) != len(v.Outcome.TagReads) {
		t.Fatalf("tag read lengths differ: %d vs %d", len(rv.Outcome.TagReads), len(v.Outcome.TagReads))
	}
	for i := range rv.Outcome.TagReads {
		if rv.Outcome.TagReads[i] != v.Outcome.TagReads[i] {
			t.Fatalf("tag %d reads differ: %d vs %d", i, rv.Outcome.TagReads[i], v.Outcome.TagReads[i])
		}
	}
	if got := replica.Metrics().Snapshot().Resumed; got != 1 {
		t.Fatalf("resumed counter %d, want 1", got)
	}
	// The checkpoint is the only replica: the capture log it embeds must
	// carry the resumed node to the primary's log, byte for byte.
	replicaLog, _, ok := replica.Capture(rid)
	if !ok || !bytes.Equal(replicaLog, primaryLog) {
		t.Fatalf("resumed capture log (%d bytes, ok %v) != primary's (%d bytes)",
			len(replicaLog), ok, len(primaryLog))
	}
}

// TestResumeRejectsCorruptCheckpoint: a mangled blob must fail at
// admission with the decoder's typed error, not on the shard.
func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	s, err := New(multiSortieConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Region: "dock", Tags: testTags(1), Seed: 5, Resume: []byte("not a checkpoint")}
	if _, err := s.Submit(req); err == nil {
		t.Fatal("corrupt resume blob admitted")
	} else if !strings.Contains(err.Error(), "resume checkpoint rejected") {
		t.Fatalf("unexpected rejection: %v", err)
	}
	// And a seedless resume is rejected before the decode is even tried.
	req.Seed = 0
	if _, err := s.Submit(req); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seedless resume rejection: %v", err)
	}
}

// TestResumeReplicaAdmitsOnce: concurrent submits naming one held
// replica admit exactly one mission; the rest are refused, because the
// first admission consumed the replica.
func TestResumeReplicaAdmitsOnce(t *testing.T) {
	s, err := New(multiSortieConfig(1)) // not started: admitted missions stay queued
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Region: "dock", Tags: testTags(1), Seed: 5}
	eng, err := runtime.New(MissionConfig(s.Config(), req, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutReplica("f-000001", 1, eng.SnapshotCtx(context.Background())); err != nil {
		t.Fatal(err)
	}
	req.ResumeReplica = "f-000001"
	var wg sync.WaitGroup
	var admitted atomic.Int32
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(req); err == nil {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("%d submits resumed one replica, want 1", got)
	}
	if _, ok := s.replicas.lookup("f-000001"); ok {
		t.Fatal("the admitted resume left its replica held")
	}
}

// TestReplicaStore exercises put/lookup/drop, monotonic sortie counts,
// and both budget caps, on a 2-replica, 64-byte store.
func TestReplicaStore(t *testing.T) {
	s, err := New(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	s.replicas = newReplicaStore(2, 64)
	blob := []byte("0123456789")
	if err := s.PutReplica("m-1", 1, blob); err != nil {
		t.Fatal(err)
	}
	if err := s.PutReplica("m-1", 2, blob); err != nil {
		t.Fatalf("forward overwrite rejected: %v", err)
	}
	if err := s.PutReplica("m-1", 1, blob); err == nil {
		t.Fatal("stale replica accepted")
	}
	if rep, ok := s.replicas.lookup("m-1"); !ok || rep.sortie != 2 || !bytes.Equal(rep.data, blob) {
		t.Fatalf("lookup returned (%d, %q, %v)", rep.sortie, rep.data, ok)
	}
	if err := s.PutReplica("m-2", 1, blob); err != nil {
		t.Fatal(err)
	}
	if err := s.PutReplica("m-3", 1, blob); err == nil {
		t.Fatal("count cap not enforced")
	}
	if !s.DropReplica("m-2") {
		t.Fatal("drop of held replica failed")
	}
	if s.DropReplica("m-2") {
		t.Fatal("double drop reported success")
	}
	if err := s.PutReplica("m-big", 1, make([]byte, 60)); err == nil {
		t.Fatal("byte budget not enforced")
	}
	snap := s.Metrics().Snapshot()
	if snap.ReplicasHeld != 1 || snap.ReplicaPuts != 3 {
		t.Fatalf("replica gauges: held=%d puts=%d", snap.ReplicasHeld, snap.ReplicaPuts)
	}
}

// TestRetryAfterMonotoneReasonable drives a seeded arrival spike into a
// full queue on a stopped scheduler and checks every 429's Retry-After
// estimate: never negative, never absurd relative to the queue depth,
// and non-decreasing as depth grows (satellite: admission under burst).
func TestRetryAfterMonotoneReasonable(t *testing.T) {
	cfg := fastConfig(2)
	cfg.QueueCap = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the EWMA as a worker would after a 200ms batch.
	s.mu.Lock()
	s.ewmaBatchMs = 200
	s.mu.Unlock()

	for i := 0; i < cfg.QueueCap; i++ {
		submitOK(t, s, Request{Region: "dock", Tags: testTags(uint16(i + 1))})
	}
	// The spike: every further submit is a 429. The queue is full and
	// static, so the estimate must be stable and sane throughout.
	var last time.Duration
	for i := 0; i < 50; i++ {
		_, err := s.Submit(Request{Region: "dock", Tags: testTags(200)})
		var backlog ErrBacklog
		if !asBacklog(err, &backlog) {
			t.Fatalf("spike submit %d: %v", i, err)
		}
		ra := backlog.RetryAfter
		if ra < 0 {
			t.Fatalf("negative Retry-After %s", ra)
		}
		if ra < time.Second {
			t.Fatalf("Retry-After %s under the 1s floor", ra)
		}
		// Bounded by depth: the estimate can never exceed the whole
		// backlog flying serially at the observed batch time.
		max := time.Duration(backlog.Depth)*200*time.Millisecond + time.Second
		if ra > max {
			t.Fatalf("Retry-After %s exceeds depth bound %s (depth %d)", ra, max, backlog.Depth)
		}
		if last != 0 && ra != last {
			t.Fatalf("estimate moved from %s to %s with a static queue", last, ra)
		}
		last = ra
	}
}

func asBacklog(err error, out *ErrBacklog) bool {
	b, ok := err.(ErrBacklog)
	if ok {
		*out = b
	}
	return ok
}
