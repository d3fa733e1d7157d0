package fleet

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rfly/internal/runtime"
)

// fastConfig keeps test missions tiny: one 4-tick sortie.
func fastConfig(shards int) Config {
	return Config{Shards: shards, Sorties: 1, TicksPerSortie: 4}
}

func testTags(id uint16) []runtime.TagSpec {
	return []runtime.TagSpec{{ID: id, X: 29, Y: 1.5, Z: 1.0}}
}

func submitOK(t *testing.T, s *Scheduler, req Request) string {
	t.Helper()
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func waitDone(t *testing.T, s *Scheduler, id string) View {
	t.Helper()
	ch := s.Done(id)
	if ch == nil {
		t.Fatalf("unknown mission %s", id)
	}
	select {
	case <-ch:
	case <-time.After(60 * time.Second):
		t.Fatalf("mission %s did not terminate", id)
	}
	v, _ := s.Get(id)
	return v
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Request{Region: "atlantis", Tags: testTags(1)}); err == nil {
		t.Fatal("unknown region accepted")
	}
	if _, err := s.Submit(Request{Region: "dock"}); err == nil {
		t.Fatal("tagless request accepted")
	}
	long := make([]runtime.TagSpec, 9)
	for i := range long {
		long[i] = runtime.TagSpec{ID: uint16(i + 1), X: 1, Y: 1, Z: 1}
	}
	if _, err := s.Submit(Request{Region: "dock", Tags: long}); err == nil {
		t.Fatal("oversized tag list accepted")
	}
}

// TestBackpressureOverfill fills the queue on a stopped scheduler and
// asserts the bounded queue rejects with a usable Retry-After.
func TestBackpressureOverfill(t *testing.T) {
	cfg := fastConfig(1)
	cfg.QueueCap = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		submitOK(t, s, Request{Region: "dock", Tags: testTags(uint16(i + 1))})
	}
	_, err = s.Submit(Request{Region: "dock", Tags: testTags(9)})
	var backlog ErrBacklog
	if !errors.As(err, &backlog) {
		t.Fatalf("overfull queue returned %v, want ErrBacklog", err)
	}
	if backlog.Depth != 3 {
		t.Fatalf("backlog depth %d, want 3", backlog.Depth)
	}
	if backlog.RetryAfter < time.Second {
		t.Fatalf("RetryAfter %v, want >= 1s", backlog.RetryAfter)
	}
	if got := s.Metrics().Snapshot().Rejected; got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}
}

// TestBatchingCoalesces pre-fills the queue with compatible requests,
// then starts the fleet: one sortie must serve all of them, which the
// metrics — the acceptance surface — must show.
func TestBatchingCoalesces(t *testing.T) {
	cfg := fastConfig(1)
	cfg.MaxBatch = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Three compatible (same region + default channel), one not.
	a := submitOK(t, s, Request{Region: "corridor-east", Tags: testTags(1)})
	b := submitOK(t, s, Request{Region: "corridor-east", Tags: testTags(2)})
	c := submitOK(t, s, Request{Region: "corridor-east", Tags: testTags(3)})
	d := submitOK(t, s, Request{Region: "corridor-west", Tags: testTags(4)})
	s.Start()
	defer s.Drain(context.Background())

	for _, id := range []string{a, b, c, d} {
		v := waitDone(t, s, id)
		if v.Status != StatusDone {
			t.Fatalf("mission %s finished %s (%s)", id, v.Status, v.Err)
		}
	}
	for _, id := range []string{a, b, c} {
		v, _ := s.Get(id)
		if v.BatchSize != 3 {
			t.Fatalf("mission %s rode a batch of %d, want 3", id, v.BatchSize)
		}
		if v.Outcome == nil || len(v.Outcome.TagReads) != 1 {
			t.Fatalf("mission %s outcome not demuxed per-request: %+v", id, v.Outcome)
		}
	}
	snap := s.Metrics().Snapshot()
	if snap.Batches != 2 {
		t.Fatalf("batches = %d, want 2 (one coalesced, one solo)", snap.Batches)
	}
	if snap.BatchedRequests < 2 {
		t.Fatalf("batched_requests = %d, want >= 2 (coalescing must be visible in metrics)", snap.BatchedRequests)
	}
	if snap.MeanBatchSize != 2 {
		t.Fatalf("mean_batch_size = %v, want 2", snap.MeanBatchSize)
	}
}

// TestConcurrent64On4Shards is the acceptance load: 64 concurrent
// mission requests against a 4-shard fleet with a bounded queue; every
// admitted mission must terminate, and rejected submissions must carry
// the retry hint.
func TestConcurrent64On4Shards(t *testing.T) {
	cfg := fastConfig(4)
	cfg.QueueCap = 64
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())

	const n = 64
	regions := []string{"corridor-east", "corridor-west", "dock"}
	ids := make([]string, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	rejected := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := s.Submit(Request{
				Region:   regions[i%len(regions)],
				Tags:     testTags(uint16(i + 1)),
				Priority: i % 3,
			})
			if err != nil {
				var backlog ErrBacklog
				if !errors.As(err, &backlog) {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				mu.Lock()
				rejected++
				mu.Unlock()
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()

	done := 0
	for _, id := range ids {
		if id == "" {
			continue
		}
		v := waitDone(t, s, id)
		if v.Status != StatusDone {
			t.Fatalf("mission %s finished %s (%s)", id, v.Status, v.Err)
		}
		done++
	}
	if done+rejected != n {
		t.Fatalf("accounted %d done + %d rejected, want %d", done, rejected, n)
	}
	if done < n/2 {
		t.Fatalf("only %d/%d missions completed", done, n)
	}
	snap := s.Metrics().Snapshot()
	if snap.Completed != int64(done) {
		t.Fatalf("metrics completed %d, want %d", snap.Completed, done)
	}
	if snap.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain-down, want 0", snap.QueueDepth)
	}
}

func TestCancelQueued(t *testing.T) {
	s, err := New(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	id := submitOK(t, s, Request{Region: "dock", Tags: testTags(1)})
	if !s.Cancel(id) {
		t.Fatal("cancel of queued mission failed")
	}
	v, _ := s.Get(id)
	if v.Status != StatusCanceled {
		t.Fatalf("status %s, want canceled", v.Status)
	}
	if s.Cancel(id) {
		t.Fatal("cancel of terminal mission reported true")
	}
	// The worker must skip the canceled record without flying it.
	s.Start()
	defer s.Drain(context.Background())
	id2 := submitOK(t, s, Request{Region: "dock", Tags: testTags(2)})
	if v := waitDone(t, s, id2); v.Status != StatusDone {
		t.Fatalf("follow-up mission finished %s", v.Status)
	}
	if snap := s.Metrics().Snapshot(); snap.Batches != 1 {
		t.Fatalf("flew %d batches, want 1 (canceled mission must not fly)", snap.Batches)
	}
}

// TestDeadlineExpiresQueued: a request whose deadline passed while
// queued is expired by the dispatcher, not flown.
func TestDeadlineExpiresQueued(t *testing.T) {
	s, err := New(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	id := submitOK(t, s, Request{
		Region:   "dock",
		Tags:     testTags(1),
		Deadline: time.Now().Add(-time.Millisecond),
	})
	s.Start()
	defer s.Drain(context.Background())
	v := waitDone(t, s, id)
	if v.Status != StatusExpired {
		t.Fatalf("status %s, want expired", v.Status)
	}
	if snap := s.Metrics().Snapshot(); snap.Expired != 1 {
		t.Fatalf("expired counter %d, want 1", snap.Expired)
	}
}

// TestDrain: admission stops, queued work cancels, in-flight work
// finishes, and the drained shard leaves a resumable checkpoint.
func TestDrain(t *testing.T) {
	cfg := fastConfig(1)
	cfg.Sorties = 2
	cfg.TicksPerSortie = 30 // long enough to still be flying when we drain
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	req := Request{Region: "corridor-east", Tags: testTags(1), Seed: 41, SARPoints: 8}
	inflight := submitOK(t, s, req)
	// Wait for it to leave the queue.
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, _ := s.Get(inflight)
		if v.Status != StatusQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("mission never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued := submitOK(t, s, Request{Region: "dock", Tags: testTags(2)})

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Request{Region: "dock", Tags: testTags(3)}); !errors.As(err, &ErrDraining{}) {
		t.Fatalf("post-drain submit returned %v, want ErrDraining", err)
	}
	if v, _ := s.Get(inflight); v.Status != StatusDone {
		t.Fatalf("in-flight mission finished %s, want done (drain must let it land)", v.Status)
	}
	if v, _ := s.Get(queued); v.Status != StatusCanceled {
		t.Fatalf("queued mission finished %s, want canceled", v.Status)
	}
	ckpt := s.ShardCheckpoint(0)
	if ckpt == nil {
		t.Fatal("drained shard left no checkpoint")
	}
	// The drain checkpoint is the end-of-mission state, byte for byte:
	// an in-process twin flying the same config must snapshot the same
	// bytes.
	twin, err := runtime.New(MissionConfig(s.Config(), req, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if want := twin.SnapshotCtx(context.Background()); !bytes.Equal(ckpt, want) {
		t.Fatalf("drain checkpoint (%d bytes) differs from the twin's final snapshot (%d bytes)", len(ckpt), len(want))
	}
}

// TestStopCancelsInFlight: Stop (unlike Drain) cancels the sortie
// context; the engine rolls back and the member fails.
func TestStopCancelsInFlight(t *testing.T) {
	cfg := fastConfig(1)
	cfg.Sorties = 50
	cfg.TicksPerSortie = 50
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	id := submitOK(t, s, Request{Region: "corridor-east", Tags: testTags(1)})
	for {
		if v, _ := s.Get(id); v.Status == StatusRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Get(id)
	if v.Status != StatusFailed {
		t.Fatalf("status after Stop = %s, want failed", v.Status)
	}
}

// TestCancelRunningBatchSolo: canceling the only member of a running
// batch cancels the sortie itself.
func TestCancelRunningBatchSolo(t *testing.T) {
	cfg := fastConfig(1)
	cfg.Sorties = 50
	cfg.TicksPerSortie = 50
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	id := submitOK(t, s, Request{Region: "dock", Tags: testTags(1)})
	for {
		if v, _ := s.Get(id); v.Status == StatusRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !s.Cancel(id) {
		t.Fatal("cancel of running mission failed")
	}
	v := waitDone(t, s, id)
	if v.Status != StatusCanceled {
		t.Fatalf("status %s, want canceled", v.Status)
	}
}
