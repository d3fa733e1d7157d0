package chaos

import (
	"context"
	"testing"
	"time"
)

// TestNodeKillCampaign is the federation acceptance campaign: ≥16
// seeds (4 in -short), each hard-killing an in-flight mission's
// serving node after a randomly drawn checkpoint boundary replicated.
// Every mission must complete through exactly one failover, every
// failover must resume from the replicated checkpoint (not rerun from
// scratch), every resumed localization must be bit-identical to the
// uninterrupted twin, and the final primary's capture log must equal
// the twin's byte for byte.
func TestNodeKillCampaign(t *testing.T) {
	seeds := 16
	if testing.Short() {
		seeds = 4
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	res, err := RunNodeKillCampaign(ctx, NodeKillCampaignConfig{
		Seeds:    seeds,
		BaseSeed: 2017,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	if res.Runs != seeds {
		t.Fatalf("campaign ran %d/%d seeds", res.Runs, seeds)
	}
	if res.Failovers != seeds {
		t.Fatalf("want one failover per seed, got %d/%d", res.Failovers, seeds)
	}
	if res.Resumed != seeds {
		t.Fatalf("want every failover to resume from a replica, got %d/%d", res.Resumed, seeds)
	}
	if res.BitIdentical != seeds {
		t.Fatalf("only %d/%d failovers were bit-identical to the twin", res.BitIdentical, seeds)
	}
}
