package fleet

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"strconv"
	"testing"
	"time"
)

// Long-poll tests. They drive a mission record's commit boundaries
// through publish — the path the engine's checkpoint sink takes — so
// every trigger is a scheduler event, never a sleep; the timeouts below
// only bound a failing test.

// flyingMission registers a running mission record on a scheduler whose
// missions fly sorties sorties, without flying it.
func flyingMission(t *testing.T, sorties int) (*Scheduler, *mission) {
	t.Helper()
	s, err := New(Config{Shards: 1, Sorties: sorties})
	if err != nil {
		t.Fatal(err)
	}
	m := &mission{id: "m-000001", status: StatusRunning, done: make(chan struct{})}
	s.mu.Lock()
	s.records[m.id] = m
	s.mu.Unlock()
	return s, m
}

// awaitAsync runs Await on its own goroutine.
func awaitAsync(ctx context.Context, s *Scheduler, id string, after int, wait time.Duration) <-chan View {
	out := make(chan View, 1)
	go func() {
		v, _ := s.Await(ctx, id, after, wait)
		out <- v
	}()
	return out
}

// waitParked returns once a long-poll is parked on m: its wake channel
// exists. publish clears the channel when it wakes the poll, so after a
// publish this waits for the poll to re-park.
func waitParked(t *testing.T, s *Scheduler, m *mission) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		parked := m.wake != nil
		s.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("long-poll never parked")
		}
		goruntime.Gosched()
	}
}

func recvView(t *testing.T, ch <-chan View) View {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never returned")
		return View{}
	}
}

func notReturned(t *testing.T, ch <-chan View) {
	t.Helper()
	select {
	case v := <-ch:
		t.Fatalf("long-poll returned early: committed %d, status %s", v.Committed, v.Status)
	default:
	}
}

func finish(s *Scheduler, m *mission) {
	s.mu.Lock()
	s.finishLocked(m, StatusDone, &Outcome{}, "")
	s.mu.Unlock()
}

// TestAwaitReturnsAtNextCommit: a long-poll with after=N on a flying
// mission returns when sortie N+1 commits, and not before — a commit
// that does not pass N wakes it only to park again.
func TestAwaitReturnsAtNextCommit(t *testing.T) {
	s, m := flyingMission(t, 4)
	batch := []*mission{m}
	s.publish(batch, 1, []byte("ckpt-1"), nil)

	got := awaitAsync(context.Background(), s, m.id, 2, time.Hour)
	waitParked(t, s, m)
	s.publish(batch, 2, []byte("ckpt-2"), nil)
	waitParked(t, s, m)
	notReturned(t, got)

	s.publish(batch, 3, []byte("ckpt-3"), nil)
	if v := recvView(t, got); v.Committed != 3 || v.Status != StatusRunning {
		t.Fatalf("long-poll returned committed %d, status %s; want 3, running", v.Committed, v.Status)
	}

	// A count already past after answers at once.
	if v, ok := s.Await(context.Background(), m.id, 1, time.Hour); !ok || v.Committed != 3 {
		t.Fatalf("Await past the count: committed %d, ok %v", v.Committed, ok)
	}
}

// TestAwaitSkipsFinalBoundary: the final commit does not release a
// poll; it returns with the terminal status that follows, even past its
// wait.
func TestAwaitSkipsFinalBoundary(t *testing.T) {
	s, m := flyingMission(t, 2)
	batch := []*mission{m}
	s.publish(batch, 1, []byte("ckpt-1"), nil)

	got := awaitAsync(context.Background(), s, m.id, 1, time.Hour)
	waitParked(t, s, m)
	s.publish(batch, 2, []byte("ckpt-2"), nil)
	waitParked(t, s, m)
	// A poll that reaches the resolving mission outlasts its own wait.
	short := awaitAsync(context.Background(), s, m.id, 1, time.Millisecond)
	time.Sleep(20 * time.Millisecond) // past the short wait; the finish below is the trigger
	notReturned(t, got)
	notReturned(t, short)

	finish(s, m)
	for _, ch := range []<-chan View{got, short} {
		if v := recvView(t, ch); v.Status != StatusDone || v.Committed != 2 {
			t.Fatalf("long-poll returned committed %d, status %s; want 2, done", v.Committed, v.Status)
		}
	}
	// A fresh poll past the final boundary answers at once.
	if v, _ := s.Await(context.Background(), m.id, 0, time.Hour); v.Status != StatusDone {
		t.Fatalf("poll of a done mission returned status %s", v.Status)
	}
}

// TestAwaitTerminalCancelAndWait: a terminal mission answers at once,
// a parked poll returns when its context is cancelled or its wait
// elapses, and an unknown ID is not found.
func TestAwaitTerminalCancelAndWait(t *testing.T) {
	s, m := flyingMission(t, 4)

	ctx, cancel := context.WithCancel(context.Background())
	got := awaitAsync(ctx, s, m.id, 0, time.Hour)
	waitParked(t, s, m)
	notReturned(t, got)
	cancel()
	if v := recvView(t, got); v.Status != StatusRunning || v.Committed != 0 {
		t.Fatalf("cancelled poll returned committed %d, status %s", v.Committed, v.Status)
	}

	if v, _ := s.Await(context.Background(), m.id, 0, time.Millisecond); v.Status != StatusRunning {
		t.Fatalf("expired poll returned status %s", v.Status)
	}

	finish(s, m)
	if v := recvView(t, awaitAsync(context.Background(), s, m.id, 0, time.Hour)); v.Status != StatusDone {
		t.Fatalf("poll of a done mission returned status %s", v.Status)
	}
	if _, ok := s.Await(context.Background(), "m-999999", 0, time.Hour); ok {
		t.Fatal("Await found an unknown mission")
	}
}

// TestAwaitReleasedByStop: Scheduler.Stop releases a parked long-poll
// even when the mission itself never resolves.
func TestAwaitReleasedByStop(t *testing.T) {
	s, m := flyingMission(t, 4)
	got := awaitAsync(context.Background(), s, m.id, 0, time.Hour)
	waitParked(t, s, m)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	recvView(t, got)
}

// TestLongPollReleasedByServerClose: http.Server.Close closes the
// connection under a parked GET ?after=N, and the handler returns — well
// before the node's wait cap. A killed node's server must not keep its
// long-polls parked.
func TestLongPollReleasedByServerClose(t *testing.T) {
	s, m := flyingMission(t, 4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(s)
	returned := make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Query().Has("after") {
			close(returned)
		}
	})}
	go srv.Serve(ln)

	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/v1/missions/" + m.id + "?after=0")
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitParked(t, s, m)
	srv.Close()
	select {
	case <-returned:
	case <-time.After(maxPollWait / 2):
		t.Fatal("http.Server.Close left the long-poll handler parked")
	}
}

// TestPublishAllocs: a commit on a mission nobody long-polls allocates
// nothing — the wake channel exists only while a poll waits.
func TestPublishAllocs(t *testing.T) {
	s, m := flyingMission(t, 4)
	batch := []*mission{m}
	ckpt, log := make([]byte, 64), make([]byte, 32)
	done := 0
	if got := testing.AllocsPerRun(100, func() {
		done = done%3 + 1
		s.publish(batch, done, ckpt, log)
	}); got != 0 {
		t.Fatalf("publish: %v allocs/op, want 0", got)
	}
}

// TestHTTPLongPoll flies a real four-sortie mission and follows it with
// a chain of GET ?after=N polls: every answer is either a non-final
// boundary past N or the terminal record, and malformed parameters are
// 400s.
func TestHTTPLongPoll(t *testing.T) {
	cfg := fastConfig(1)
	cfg.Sorties = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop(context.Background())
	h := NewHandler(s)

	id := submitOK(t, s, Request{Region: "dock", Tags: testTags(3), Seed: 9, Exclusive: true})
	poll := func(query string) (int, MissionResponse) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, "/v1/missions/"+id+"?"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var mr MissionResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Code, mr
	}

	after := 0
	for polls := 0; ; polls++ {
		if polls > 100 {
			t.Fatal("mission never reached a terminal status")
		}
		code, mr := poll("after=" + strconv.Itoa(after) + "&wait_ms=10000")
		if code != http.StatusOK {
			t.Fatalf("poll after=%d: status %d", after, code)
		}
		if mr.Status.Terminal() {
			if mr.Status != StatusDone || mr.Committed != 4 {
				t.Fatalf("terminal poll: status %s, committed %d", mr.Status, mr.Committed)
			}
			break
		}
		if mr.Committed <= after || mr.Committed >= 4 {
			t.Fatalf("poll after=%d answered a running mission at committed %d", after, mr.Committed)
		}
		after = mr.Committed
	}

	for _, q := range []string{"after=-1", "after=x", "after=0&wait_ms=-5", "after=0&wait_ms=1.5"} {
		if code, _ := poll(q); code != http.StatusBadRequest {
			t.Errorf("GET ?%s: status %d, want 400", q, code)
		}
	}
}
