package federation

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"rfly/internal/fleet"
	"rfly/internal/rng"
)

// TestClientBoundsResponseBodies: a node that streams an endless body
// gets an error back from every decode path — the retrying JSON do, the
// ProbeLoad heartbeat and the raw blob fetch — after the client has
// buffered at most about maxNodeResponse bytes of it per attempt.
func TestClientBoundsResponseBodies(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/checkpoint") {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set(fleet.SortieHeader, "1")
		} else {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"id":"`)
		}
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
	if _, err := c.Await(context.Background(), "m-1", 0, 0); err == nil {
		t.Fatal("endless mission body decoded without error")
	}
	if _, err := c.ProbeLoad(context.Background()); err == nil {
		t.Fatal("endless metrics body decoded without error")
	}
	if _, data, err := c.Checkpoint(context.Background(), "m-1"); err == nil {
		t.Fatalf("endless checkpoint body read without error (%d bytes)", len(data))
	}
	runtime.ReadMemStats(&after)
	// Five bounded reads (two do attempts each for the mission and the
	// checkpoint, one probe), each growing a buffer to at most a few
	// times maxNodeResponse.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32*maxNodeResponse {
		t.Fatalf("reading endless bodies allocated %d MiB", grew>>20)
	}
}

// TestClientRejectsShortBlob: a checkpoint body that ends before its
// declared Content-Length, or declares more than maxNodeResponse, is an
// error — never a truncated checkpoint handed on to a replica store.
func TestClientRejectsShortBlob(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(fleet.SortieHeader, "1")
		if r.URL.Path == "/v1/missions/m-short/checkpoint" {
			// Declare 1000 bytes, send 10, and end the response.
			w.Header().Set("Content-Length", "1000")
			w.Write(make([]byte, 10))
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(maxNodeResponse+1))
		w.Write(make([]byte, 10))
	}))
	defer ts.Close()
	c := NewClient(ts.URL, Config{
		RequestTimeout: 10 * time.Second,
		MaxRetries:     1,
		BackoffBase:    time.Millisecond,
		BackoffMax:     time.Millisecond,
	}, &jitterSource{src: rng.New(1)})

	if _, data, err := c.Checkpoint(context.Background(), "m-short"); err == nil {
		t.Fatalf("short checkpoint body read without error (%d bytes)", len(data))
	}
	if _, data, err := c.Checkpoint(context.Background(), "m-big"); err == nil {
		t.Fatalf("oversize checkpoint body read without error (%d bytes)", len(data))
	}
}
