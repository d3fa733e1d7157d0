package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rfly/internal/runtime"
)

func postMission(t *testing.T, ts *httptest.Server, body SubmitRequest) *http.Response {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/missions", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func tagInputs(id uint16) []TagInput {
	return []TagInput{{ID: id, X: 29, Y: 1.5, Z: 1.0}}
}

// TestHTTPOverfill429 is the acceptance test for backpressure at the
// HTTP boundary: overfilling the bounded queue must yield 429 with a
// Retry-After header and a structured error body.
func TestHTTPOverfill429(t *testing.T) {
	cfg := fastConfig(1)
	cfg.QueueCap = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Scheduler deliberately not started: nothing dequeues, so the
	// fifth submit must overflow.
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	for i := 0; i < 4; i++ {
		resp := postMission(t, ts, SubmitRequest{Region: "dock", Tags: tagInputs(uint16(i + 1))})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill submit %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp := postMission(t, ts, SubmitRequest{Region: "dock", Tags: tagInputs(9)})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfill status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 missing Retry-After header")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want integer >= 1", ra)
	}
	var eresp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Error == "" || eresp.RetryAfterS < 1 {
		t.Fatalf("error body %+v, want message and retry_after_s >= 1", eresp)
	}
}

func TestHTTPSubmitPollDone(t *testing.T) {
	s, err := New(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	resp := postMission(t, ts, SubmitRequest{
		Region:     "corridor-east",
		Tags:       tagInputs(7),
		DeadlineMs: 30_000,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.ID == "" || sr.Status != StatusQueued {
		t.Fatalf("submit response %+v", sr)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/missions/" + sr.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", resp.StatusCode)
		}
		var mr MissionResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if mr.Status.Terminal() {
			if mr.Status != StatusDone {
				t.Fatalf("mission ended %s (%s)", mr.Status, mr.Error)
			}
			if mr.Outcome == nil || len(mr.Outcome.TagReads) != 1 {
				t.Fatalf("terminal response missing demuxed outcome: %+v", mr.Outcome)
			}
			if mr.Shard == nil {
				t.Fatal("terminal response missing shard assignment")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("mission did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	s, err := New(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	cases := []struct {
		name string
		body string
	}{
		{"unknown region", `{"region":"atlantis","tags":[{"id":1,"x":1,"y":1,"z":1}]}`},
		{"no tags", `{"region":"dock"}`},
		{"unknown field", `{"region":"dock","tags":[{"id":1,"x":1,"y":1,"z":1}],"warp":9}`},
		{"negative deadline", `{"region":"dock","tags":[{"id":1,"x":1,"y":1,"z":1}],"deadline_ms":-5}`},
		{"malformed json", `{"region":`},
		{"channel below band", `{"region":"corridor-east","tags":[{"id":1,"x":1,"y":1,"z":1}],"sar_points":8,"seed":3,"channel_hz":1}`},
		{"channel above band", `{"region":"corridor-east","tags":[{"id":1,"x":1,"y":1,"z":1}],"sar_points":8,"seed":3,"channel_hz":1e300}`},
		{"negative channel", `{"region":"corridor-east","tags":[{"id":1,"x":1,"y":1,"z":1}],"sar_points":8,"seed":3,"channel_hz":-5}`},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/missions", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/missions/m-999999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown mission status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHTTPCancel(t *testing.T) {
	s, err := New(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the mission stays queued so the cancel always lands.
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	resp := postMission(t, ts, SubmitRequest{Region: "dock", Tags: tagInputs(1)})
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/missions/"+sr.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", dresp.StatusCode)
	}
	var mr MissionResponse
	if err := json.NewDecoder(dresp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if mr.Status != StatusCanceled {
		t.Fatalf("post-cancel status %s", mr.Status)
	}

	// Second cancel: mission already terminal — conflict.
	dresp2, err := ts.Client().Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if dresp2.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel status %d, want 409", dresp2.StatusCode)
	}
	dresp2.Body.Close()
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	s, err := New(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	resp.Body.Close()

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if snap.Shards != 2 {
		t.Fatalf("metrics shards %d, want 2", snap.Shards)
	}
	if len(snap.ShardBusyS) != 2 {
		t.Fatalf("shard_busy_s has %d entries, want 2", len(snap.ShardBusyS))
	}

	// Draining flips healthz to 503.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", hresp.StatusCode)
	}
	hresp.Body.Close()

	// Submissions during drain surface as 503 too.
	sresp := postMission(t, ts, SubmitRequest{Region: "dock", Tags: tagInputs(2)})
	if sresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit status %d, want 503", sresp.StatusCode)
	}
	sresp.Body.Close()
}

// TestHTTPCheckpointAndReplica drives the federation-facing endpoints
// end to end over real HTTP: submit exclusive, read the published
// checkpoint, hold it as a replica (as a successor node would), resume
// it by naming it in a submit, which consumes it, then hold and drop it
// again.
func TestHTTPCheckpointAndReplica(t *testing.T) {
	cfg := fastConfig(1)
	cfg.Sorties = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop(context.Background())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	resp := postMission(t, ts, SubmitRequest{
		Region: "dock", Tags: tagInputs(4), Seed: 77, Exclusive: true,
	})
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := sub.ID; id == "" {
		t.Fatal("submit returned no mission id")
	}
	// Wait for completion, then the checkpoint is final.
	<-s.Done(sub.ID)

	cresp, err := ts.Client().Get(ts.URL + "/v1/missions/" + sub.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cresp.StatusCode != http.StatusOK || cresp.Header.Get(SortieHeader) != "2" || len(ckpt) == 0 ||
		cresp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("checkpoint fetch: status %d, sortie %q, %d bytes of %s", cresp.StatusCode,
			cresp.Header.Get(SortieHeader), len(ckpt), cresp.Header.Get("Content-Type"))
	}

	// Hold it as a replica under the coordinator's mission id.
	putReplica(t, ts, "fed-001", 2, ckpt)
	if rep, ok := s.replicas.lookup("fed-001"); !ok || rep.sortie != 2 || !bytes.Equal(rep.data, ckpt) {
		t.Fatal("held replica differs from the published checkpoint")
	}

	// The replica resumes as a mission (trivially: all sorties done, the
	// engine just reports its final state).
	resp = postMission(t, ts, SubmitRequest{
		Region: "dock", Tags: tagInputs(4), Seed: 77, ResumeReplica: "fed-001",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume submit status %d", resp.StatusCode)
	}
	var rsub SubmitResponse
	json.NewDecoder(resp.Body).Decode(&rsub)
	resp.Body.Close()
	<-s.Done(rsub.ID)
	if v, _ := s.Get(rsub.ID); v.Status != StatusDone {
		t.Fatalf("resumed mission finished %s: %s", v.Status, v.Err)
	}
	if got := deleteReplica(t, ts, "fed-001"); got != http.StatusNotFound {
		t.Fatalf("delete after the resume: status %d, want 404 (admission consumes the replica)", got)
	}

	putReplica(t, ts, "fed-001", 2, ckpt)
	if got := deleteReplica(t, ts, "fed-001"); got != http.StatusOK {
		t.Fatalf("replica delete status %d", got)
	}
	if got := deleteReplica(t, ts, "fed-001"); got != http.StatusNotFound {
		t.Fatalf("second delete status %d, want 404", got)
	}
}

func putReplica(t *testing.T, ts *httptest.Server, id string, sortie int, data []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/replicas/"+id+"?sortie="+strconv.Itoa(sortie), bytes.NewReader(data))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica put status %d", resp.StatusCode)
	}
}

func deleteReplica(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/replicas/"+id, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestHTTPResumeReplica: a submit naming resume_replica resumes from the
// replica this node holds under that ID. An unknown ID is a typed 400
// that names it; a held replica answers 202, the mission finishes done
// and the store no longer holds the replica; a full queue answers 429
// and the replica stays held for the retry.
func TestHTTPResumeReplica(t *testing.T) {
	cfg := multiSortieConfig(1)
	cfg.QueueCap = 1
	req := Request{Region: "dock", Tags: testTags(4), Seed: 77, Exclusive: true}
	eng, err := runtime.New(MissionConfig(cfg, req, 0))
	if err != nil {
		t.Fatal(err)
	}
	var ckpt []byte
	eng.CheckpointSink = func(done int, data []byte) {
		if done == 1 {
			ckpt = data
		}
	}
	if _, err := eng.Run(context.Background()); err != nil || ckpt == nil {
		t.Fatalf("no sortie-1 checkpoint (err %v)", err)
	}
	resume := SubmitRequest{Region: "dock", Tags: tagInputs(4), Seed: 77, ResumeReplica: "f-000001"}

	t.Run("unknown", func(t *testing.T) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewHandler(s))
		defer ts.Close()
		resp := postMission(t, ts, resume)
		defer resp.Body.Close()
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `"f-000001"`) {
			t.Fatalf("unknown replica: status %d, error %q; want a 400 naming it", resp.StatusCode, e.Error)
		}
	})

	t.Run("held", func(t *testing.T) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		defer s.Stop(context.Background())
		ts := httptest.NewServer(NewHandler(s))
		defer ts.Close()
		putReplica(t, ts, "f-000001", 1, ckpt)
		resp := postMission(t, ts, resume)
		var sub SubmitResponse
		json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("resume submit status %d, want 202", resp.StatusCode)
		}
		if v := waitDone(t, s, sub.ID); v.Status != StatusDone || v.Outcome.Sorties != cfg.Sorties {
			t.Fatalf("resumed mission finished %s after %d sorties: %s", v.Status, v.Outcome.Sorties, v.Err)
		}
		if _, ok := s.replicas.lookup("f-000001"); ok {
			t.Fatal("the node still holds the replica it resumed")
		}
		if snap := s.Metrics().Snapshot(); snap.ReplicasHeld != 0 || snap.ReplicaBytes != 0 || snap.Resumed != 1 {
			t.Fatalf("replica gauges held=%d bytes=%d resumed=%d after the resume",
				snap.ReplicasHeld, snap.ReplicaBytes, snap.Resumed)
		}
	})

	t.Run("queue full", func(t *testing.T) {
		s, err := New(cfg) // not started: the queue stays full
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewHandler(s))
		defer ts.Close()
		submitOK(t, s, Request{Region: "dock", Tags: testTags(1)})
		putReplica(t, ts, "f-000001", 1, ckpt)
		resp := postMission(t, ts, resume)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("resume into a full queue: status %d, want 429", resp.StatusCode)
		}
		if rep, ok := s.replicas.lookup("f-000001"); !ok || rep.sortie != 1 {
			t.Fatal("a refused resume gave up the replica")
		}
	})
}

// TestWithRequestTimeout: a handler that outlives the per-request
// budget sees its context canceled.
func TestWithRequestTimeout(t *testing.T) {
	var sawDeadline bool
	h := WithRequestTimeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			sawDeadline = true
		case <-time.After(5 * time.Second):
		}
	}), 20*time.Millisecond)
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !sawDeadline {
		t.Fatal("request context never hit the per-request timeout")
	}
}

// TestHTTPLiveEstimate: a SAR mission's record grows an "estimate" block
// once enough aperture commits, and the terminal record's estimate
// agrees exactly with the outcome's final solve — same accumulator, same
// bits, one read through JSON.
func TestHTTPLiveEstimate(t *testing.T) {
	cfg := fastConfig(1)
	cfg.Sorties = 3
	cfg.TicksPerSortie = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	resp := postMission(t, ts, SubmitRequest{
		Region:    "corridor-east",
		Tags:      tagInputs(7),
		Seed:      11,
		SARPoints: 16,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	var mr MissionResponse
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/missions/" + sr.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if mr.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("mission did not finish")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if mr.Status != StatusDone {
		t.Fatalf("mission ended %s (%s)", mr.Status, mr.Error)
	}
	if mr.Estimate == nil {
		t.Fatal("terminal SAR mission record has no estimate block")
	}
	est := mr.Estimate
	if est.Sorties != cfg.Sorties {
		t.Fatalf("estimate covers %d sorties, mission flew %d", est.Sorties, cfg.Sorties)
	}
	if est.SigmaX <= 0 || est.SigmaY <= 0 {
		t.Fatalf("estimate σ (%v, %v), want positive", est.SigmaX, est.SigmaY)
	}
	if est.Kept <= 0 || est.Kept > est.Total {
		t.Fatalf("estimate accounting kept=%d total=%d", est.Kept, est.Total)
	}
	if mr.Outcome == nil || !mr.Outcome.LocOK {
		t.Fatalf("outcome missing localization: %+v", mr.Outcome)
	}
	if est.X != mr.Outcome.LocX || est.Y != mr.Outcome.LocY {
		t.Fatalf("final estimate (%.17g, %.17g) != outcome solve (%.17g, %.17g)",
			est.X, est.Y, mr.Outcome.LocX, mr.Outcome.LocY)
	}
}

// TestHTTPNoEstimateWithoutSAR: an inventory-only mission never grows an
// estimate block.
func TestHTTPNoEstimateWithoutSAR(t *testing.T) {
	s, err := New(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	resp := postMission(t, ts, SubmitRequest{Region: "dock", Tags: tagInputs(3)})
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/missions/" + sr.ID)
		if err != nil {
			t.Fatal(err)
		}
		var mr MissionResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if mr.Status.Terminal() {
			if mr.Estimate != nil {
				t.Fatalf("inventory-only mission grew an estimate block: %+v", mr.Estimate)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("mission did not finish")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReadBlob: a raw body is read whole, and one that ends short of its
// declared length or exceeds MaxBody is an error, not a truncated blob.
func TestReadBlob(t *testing.T) {
	body := bytes.Repeat([]byte{7}, 1000)
	big := bytes.Repeat([]byte{7}, MaxBody+1)
	for _, tc := range []struct {
		name string
		body []byte
		size int64
		want int // bytes read; -1 for an error
	}{
		{"declared", body, 1000, 1000},
		{"undeclared", body, -1, 1000},
		{"empty", nil, 0, 0},
		{"short of its declared size", body[:10], 1000, -1},
		{"longer than its declared size", body, 10, -1},
		{"declared over MaxBody", body, MaxBody + 1, -1},
		{"undeclared over MaxBody", big, -1, -1},
	} {
		got, err := ReadBlob(bytes.NewReader(tc.body), tc.size)
		switch {
		case tc.want < 0 && err == nil:
			t.Errorf("%s: read %d bytes without error", tc.name, len(got))
		case tc.want >= 0 && (err != nil || !bytes.Equal(got, tc.body)):
			t.Errorf("%s: read %d bytes, err %v; want %d", tc.name, len(got), err, tc.want)
		}
	}
}
