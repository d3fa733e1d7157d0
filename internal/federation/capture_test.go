package federation

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"rfly/internal/capture"
	"rfly/internal/fleet"
)

// getCaptureReplica asks one node for a held capture replica directly
// over HTTP (the coordinator does not expose its successor choice).
func getCaptureReplica(t *testing.T, base, id string) (sortie int, data []byte, ok bool) {
	t.Helper()
	resp, err := http.Get(base + "/v1/capture-replicas/" + id)
	if err != nil {
		return 0, nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, nil, false
	}
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sortie, err = strconv.Atoi(resp.Header.Get(fleet.SortieHeader))
	if err != nil {
		t.Fatal(err)
	}
	return sortie, data, true
}

// TestCaptureSegmentReplication: a SAR mission's capture log replicates
// to the ring successor segment by segment — one full sync, then raw
// tail appends — and the reassembled replica is a decodable log that
// tracks the primary's byte for byte.
func TestCaptureSegmentReplication(t *testing.T) {
	// Long mission: the replica is dropped the moment the mission
	// terminates, so the mid-flight inspection needs sorties to spare
	// after the second replication lands.
	nodeCfg := fleet.Config{Shards: 1, Sorties: 16, TicksPerSortie: 64}
	nodes := startNodes(t, 3, nodeCfg)
	c, err := New(fastFedConfig(urls(nodes)))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	id, err := c.Submit(context.Background(), fleet.SubmitRequest{
		Region: "corridor-east", Tags: fedTags(3), Seed: 4242, SARPoints: 48,
	})
	if err != nil {
		t.Fatal(err)
	}

	// First replication is a full sync; a later boundary must then
	// advance the replicated capture sortie via a tail append (the
	// coordinator only ships the whole log when it believes the
	// successor holds nothing).
	waitFor(t, 30*time.Second, "first capture replication", func() bool {
		v, _ := c.Get(id)
		return v.ReplicatedCapSortie >= 1
	})
	v, _ := c.Get(id)
	first := v.ReplicatedCapSortie

	// The instant a later boundary lands, grab the replica from inside
	// the predicate — the holder drops it when the mission terminates.
	var heldSortie int
	var blob []byte
	found := false
	waitFor(t, 30*time.Second, "incremental capture replication", func() bool {
		v, _ := c.Get(id)
		if v.ReplicatedCapSortie <= first {
			return false
		}
		for _, n := range nodes {
			if sortie, data, ok := getCaptureReplica(t, n.ts.URL, id); ok {
				heldSortie, blob, found = sortie, data, true
				break
			}
		}
		return true
	})
	if !found {
		t.Fatal("no node holds a capture replica")
	}

	// The reassembled replica must decode as a sealed log with one
	// segment per replicated sortie, and be a byte-prefix of the
	// primary's current log (append-only all the way through the wire).
	v, _ = c.Get(id)
	rd, err := capture.OpenLog(blob)
	if err != nil {
		t.Fatalf("reassembled capture replica does not decode: %v", err)
	}
	if rd.NumSegments() != heldSortie {
		t.Fatalf("replica has %d segments, claims sortie %d", rd.NumSegments(), heldSortie)
	}
	resp, err := http.Get(v.Node + "/v1/missions/" + v.RemoteID + "/capture")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(pb, blob) {
		t.Fatal("capture replica is not a byte-prefix of the primary's log")
	}

	select {
	case <-c.Done(id):
	case <-time.After(60 * time.Second):
		t.Fatal("mission never finished")
	}
	fv, _ := c.Get(id)
	if fv.Status != fleet.StatusDone {
		t.Fatalf("mission finished %s: %s", fv.Status, fv.Err)
	}
	snap := c.Metrics().Snapshot()
	if snap.CaptureFullSyncs < 1 || snap.CaptureReplicated <= snap.CaptureFullSyncs {
		t.Fatalf("capture replication metrics %+v: want >=1 full sync and at least one tail append", snap)
	}
}
