package federation

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"rfly/internal/rng"
)

// TestClientBoundsResponseBodies: a node that streams an endless JSON
// string gets an error back from both decode paths — the retrying do and
// the ProbeLoad heartbeat — after the client has buffered at most
// maxNodeResponse bytes of it per attempt.
func TestClientBoundsResponseBodies(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"id":"`)
		chunk := bytes.Repeat([]byte("a"), 32<<10)
		for r.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer ts.Close()
	cfg := Config{
		RequestTimeout: 10 * time.Second,
		MaxRetries:     1,
		BackoffBase:    time.Millisecond,
		BackoffMax:     time.Millisecond,
	}
	c := NewClient(ts.URL, cfg, &jitterSource{src: rng.New(1)})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := c.Mission(context.Background(), "m-1"); err == nil {
		t.Fatal("endless mission body decoded without error")
	}
	if _, err := c.ProbeLoad(context.Background()); err == nil {
		t.Fatal("endless metrics body decoded without error")
	}
	runtime.ReadMemStats(&after)
	// Three bounded decodes (two do attempts, one probe), each growing a
	// buffer to at most a few times maxNodeResponse.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32*maxNodeResponse {
		t.Fatalf("decoding endless bodies allocated %d MiB", grew>>20)
	}
}
