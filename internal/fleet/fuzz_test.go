package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"rfly/internal/runtime"
)

// Fuzz targets for the request decoders a node exposes to its peers and
// clients: every input must get a 2xx or a typed 4xx — a JSON
// ErrorResponse with a message — never a panic or a 5xx. Seed corpora
// live in testdata/fuzz.

// serveOnce sends one request with a raw query and body straight to the
// node handler. The request is built by hand so any query string reaches
// the handler, as it would off the wire.
func serveOnce(s *Scheduler, method, path, query string, body []byte) *httptest.ResponseRecorder {
	req := &http.Request{
		Method:        method,
		URL:           &url.URL{Path: path, RawQuery: query},
		Header:        http.Header{},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
	}
	rec := httptest.NewRecorder()
	NewHandler(s).ServeHTTP(rec, req)
	return rec
}

// requireTyped fails unless rec is a 2xx or a 4xx whose body decodes as
// an ErrorResponse with a message.
func requireTyped(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	switch {
	case rec.Code >= 200 && rec.Code < 300:
	case rec.Code >= 400 && rec.Code < 500:
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("status %d with an untyped body %q", rec.Code, rec.Body.Bytes())
		}
	default:
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

func fuzzScheduler(t testing.TB) *Scheduler {
	s, err := New(Config{Shards: 1, QueueCap: 2, Sorties: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// FuzzReplicaPut: PUT /v1/replicas/{id}?query with a raw checkpoint
// body. A stored replica's sortie count never moves backwards.
func FuzzReplicaPut(f *testing.F) {
	f.Add("sortie=1", []byte("RFC1"))
	f.Fuzz(func(t *testing.T, query string, body []byte) {
		s := fuzzScheduler(t)
		if err := s.PutReplica("m-1", 2, []byte("held")); err != nil {
			t.Fatal(err)
		}
		rec := serveOnce(s, http.MethodPut, "/v1/replicas/m-1", query, body)
		requireTyped(t, rec)
		if rep, ok := s.replicas.lookup("m-1"); !ok || rep.sortie < 2 {
			t.Fatalf("held replica at sortie %d (ok %v) after a PUT that answered %d", rep.sortie, ok, rec.Code)
		}
	})
}

// FuzzSubmitBody: POST /v1/missions with an arbitrary JSON body, against
// a stopped scheduler with room for two missions. Its replica store
// holds two replicas a resume_replica body can name: f-000001 is a
// checkpoint of the dock mission with seed 7 and tag 1 at (12, 2, 1),
// and f-000002 is the same checkpoint cut in half.
func FuzzSubmitBody(f *testing.F) {
	f.Add([]byte(`{"region":"dock","tags":[{"id":1,"x":12,"y":2,"z":1}]}`))
	eng, err := runtime.New(MissionConfig(fuzzScheduler(f).Config(), Request{
		Region: "dock", Seed: 7, Tags: []runtime.TagSpec{{ID: 1, X: 12, Y: 2, Z: 1}},
	}, 0))
	if err != nil {
		f.Fatal(err)
	}
	ckpt := eng.SnapshotCtx(context.Background())
	f.Fuzz(func(t *testing.T, body []byte) {
		s := fuzzScheduler(t)
		if err := s.PutReplica("f-000001", 1, ckpt); err != nil {
			t.Fatal(err)
		}
		if err := s.PutReplica("f-000002", 1, ckpt[:len(ckpt)/2]); err != nil {
			t.Fatal(err)
		}
		requireTyped(t, serveOnce(s, http.MethodPost, "/v1/missions", "", body))
	})
}
