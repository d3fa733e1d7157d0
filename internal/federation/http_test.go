package federation

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rfly/internal/fleet"
)

// TestCoordinatorHTTP drives the coordinator's own API end to end:
// submit, poll to done, node health view, metrics.
func TestCoordinatorHTTP(t *testing.T) {
	nodes := startNodes(t, 2, fleet.Config{Shards: 1, Sorties: 1, TicksPerSortie: 4})
	c, err := New(fastFedConfig(urls(nodes)))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	ts := httptest.NewServer(NewHandler(c))
	defer ts.Close()

	body, _ := json.Marshal(fleet.SubmitRequest{Region: "dock", Tags: fedTags(1)})
	resp, err := ts.Client().Post(ts.URL+"/v1/missions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub fleet.SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit: status %d id %q", resp.StatusCode, sub.ID)
	}

	var v MissionView
	waitFor(t, 30*time.Second, "mission completion over HTTP", func() bool {
		r, err := ts.Client().Get(ts.URL + "/v1/missions/" + sub.ID)
		if err != nil {
			return false
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return false
		}
		json.NewDecoder(r.Body).Decode(&v)
		return v.Status.Terminal()
	})
	if v.Status != fleet.StatusDone {
		t.Fatalf("mission finished %s: %s", v.Status, v.Err)
	}

	r, err := ts.Client().Get(ts.URL + "/v1/nodes")
	if err != nil {
		t.Fatal(err)
	}
	var nv struct {
		Nodes    map[string]NodeView `json:"nodes"`
		ReadOnly bool                `json:"read_only"`
	}
	json.NewDecoder(r.Body).Decode(&nv)
	r.Body.Close()
	if len(nv.Nodes) != 2 || nv.ReadOnly {
		t.Fatalf("nodes view: %+v", nv)
	}

	r, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var ms MetricsSnapshot
	json.NewDecoder(r.Body).Decode(&ms)
	r.Body.Close()
	if ms.Completed != 1 {
		t.Fatalf("metrics completed %d, want 1", ms.Completed)
	}

	// Unknown mission is a clean 404.
	r, _ = ts.Client().Get(ts.URL + "/v1/missions/f-999999")
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown mission status %d", r.StatusCode)
	}
	r.Body.Close()

	// A bad submit is the client's error, never a bad gateway: a body
	// the coordinator cannot decode, or one naming a replica (only
	// failover may), is its own 400, and one every node refuses answers
	// with the node's code and message.
	const tag = `"tags":[{"id":1,"x":12,"y":2,"z":1}]`
	for _, tc := range []struct {
		name, body, msg string
	}{
		{"unknown region", `{"region":"nowhere",` + tag + `}`, "unknown region"},
		{"no tags", `{"region":"dock","tags":[]}`, "at least one tag"},
		{"negative sar_points", `{"region":"dock",` + tag + `,"sar_points":-3}`, "sar_points"},
		{"unknown field", `{"region":"dock",` + tag + `,"bogus":1}`, "unknown field"},
		{"resume_replica", `{"region":"dock",` + tag + `,"seed":7,"resume_replica":"f-000001"}`, "resume_replica"},
		{"body over MaxBody", `{"region":"` + strings.Repeat("x", fleet.MaxBody) + `",` + tag + `}`, "too large"},
	} {
		r, err := ts.Client().Post(ts.URL+"/v1/missions", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e fleet.ErrorResponse
		derr := json.NewDecoder(r.Body).Decode(&e)
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest || derr != nil || !strings.Contains(e.Error, tc.msg) {
			t.Errorf("%s: status %d, error %q (decode %v); want 400 with a JSON error naming %q",
				tc.name, r.StatusCode, e.Error, derr, tc.msg)
		}
	}
}
