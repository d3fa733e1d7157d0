package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"rfly/internal/capture"
)

// sarServer runs a two-sortie SAR mission to completion and returns the
// test server, scheduler, and the finished mission's id and view.
func sarServer(t *testing.T) (*httptest.Server, *Scheduler, string, View) {
	t.Helper()
	cfg := fastConfig(1)
	cfg.Sorties = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() { s.Stop(context.Background()) })
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)

	resp := postMission(t, ts, SubmitRequest{
		Region: "dock", Tags: []TagInput{{ID: 4, X: 9, Y: 2.0, Z: 1.0}},
		Seed: 77, SARPoints: 6, Exclusive: true,
	})
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	<-s.Done(sub.ID)
	v, _ := s.Get(sub.ID)
	if v.Status != StatusDone {
		t.Fatalf("mission ended %s: %s", v.Status, v.Err)
	}
	return ts, s, sub.ID, v
}

// TestHTTPCaptureDownload: a finished SAR mission serves its full
// capture log, one sealed segment per sortie.
func TestHTTPCaptureDownload(t *testing.T) {
	ts, _, id, _ := sarServer(t)

	// get returns a blob route's body and sortie header.
	get := func(url string, wantStatus int) ([]byte, string) {
		t.Helper()
		resp, err := ts.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body, resp.Header.Get(SortieHeader)
	}

	blob, sortie := get(ts.URL+"/v1/missions/"+id+"/capture", http.StatusOK)
	if sortie != "2" || len(blob) == 0 {
		t.Fatalf("full capture response: sortie %q, %d bytes", sortie, len(blob))
	}
	rd, err := capture.OpenLog(blob)
	if err != nil {
		t.Fatalf("served capture log does not decode: %v", err)
	}
	if rd.NumSegments() != 2 {
		t.Fatalf("served log has %d segments, want 2", rd.NumSegments())
	}

	get(ts.URL+"/v1/missions/nope/capture", http.StatusNotFound)
}

// TestHTTPReplay: the replay endpoint re-solves a finished mission from
// its capture log — bit-identical to the live solve at defaults, and
// still sane under a caller-chosen grid.
func TestHTTPReplay(t *testing.T) {
	ts, s, id, v := sarServer(t)
	if v.Outcome == nil || !v.Outcome.LocOK {
		t.Fatal("mission produced no localization")
	}

	replay := func(body string, wantStatus int) ReplayResponse {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/missions/"+id+"/replay",
			"application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("replay status %d, want %d", resp.StatusCode, wantStatus)
		}
		var rr ReplayResponse
		if wantStatus == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				t.Fatal(err)
			}
		}
		return rr
	}

	// Empty body → live settings → bit-identical to the mission solve.
	live := replay("", http.StatusOK)
	if math.Float64bits(live.X) != math.Float64bits(v.Outcome.LocX) ||
		math.Float64bits(live.Y) != math.Float64bits(v.Outcome.LocY) {
		t.Fatalf("live replay (%v,%v) != mission solve (%v,%v)",
			live.X, live.Y, v.Outcome.LocX, v.Outcome.LocY)
	}
	if live.Segments != 2 || live.Records != 12 || live.Sortie != 2 {
		t.Fatalf("replay provenance %+v, want 2 segments / 12 records / sortie 2", live)
	}

	// Changed grid, robustness off: every capture integrates.
	wide := replay(`{"grid":0.5,"fine":0.2,"workers":2,"robust":false}`, http.StatusOK)
	if wide.Kept != wide.Total {
		t.Fatalf("non-robust replay rejected %d of %d", wide.Total-wide.Kept, wide.Total)
	}
	if math.Abs(wide.X-live.X) > 2 || math.Abs(wide.Y-live.Y) > 2 {
		t.Fatalf("coarse replay (%v,%v) far from live (%v,%v)", wide.X, wide.Y, live.X, live.Y)
	}

	if got := s.Metrics().Snapshot().Replays; got != 2 {
		t.Fatalf("replays counter %d, want 2", got)
	}

	// Unknown mission and malformed body.
	resp, err := ts.Client().Post(ts.URL+"/v1/missions/nope/replay", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-mission replay status %d", resp.StatusCode)
	}
	resp.Body.Close()
	replay(`{"grid":"tiny"}`, http.StatusBadRequest)
	// Resolutions whose lattice would exceed loc's point limit are
	// refused as unprocessable, not allocated: over the mission region a
	// 1 µm grid is ~1e14 cells and a 0.3 mm grid 1.1e9; a 0.1 µm fine
	// step makes a 4e12-point refinement window.
	replay(`{"grid":1e-6}`, http.StatusUnprocessableEntity)
	replay(`{"grid":0.0003}`, http.StatusUnprocessableEntity)
	replay(`{"fine":1e-7}`, http.StatusUnprocessableEntity)
}
