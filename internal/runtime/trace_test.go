package runtime

import (
	"bytes"
	"context"
	"testing"

	"rfly/internal/obs"
)

// Trace-driven invariant tests: fly the testbed mission (the same
// fault schedule the Figure-12 experiments use, scaled down) under a
// flight recorder and assert structural properties of the span tree —
// the observability layer's contract with every consumer of a trace.

// recordMission flies cfg under a fresh recorder, checkpointing at
// every sortie boundary (so checkpoint spans interleave with sortie
// spans), and returns the span snapshot plus the checkpoint bytes.
func recordMission(t *testing.T, cfg Config, capacity int) ([]obs.SpanRecord, [][]byte) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(capacity)
	ctx := obs.WithRecorder(context.Background(), rec)
	var ckpts [][]byte
	ckpts = append(ckpts, e.SnapshotCtx(ctx))
	for e.SortiesDone() < cfg.Sorties {
		if _, err := e.RunSortie(ctx); err != nil {
			t.Fatal(err)
		}
		ckpts = append(ckpts, e.SnapshotCtx(ctx))
	}
	res := e.ResultCtx(ctx)
	if len(res.Sorties) != cfg.Sorties {
		t.Fatalf("mission committed %d/%d sorties", len(res.Sorties), cfg.Sorties)
	}
	return rec.Snapshot(), ckpts
}

// buildTree is BuildTree + the enclosure check every trace must pass.
func buildTree(t *testing.T, spans []obs.SpanRecord) *obs.Tree {
	t.Helper()
	tree, err := obs.BuildTree(spans)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckEnclosure(); err != nil {
		t.Fatal(err)
	}
	return tree
}

// assertTraceInvariants checks the cross-layer nesting contract on any
// representation of a mission trace (recorder snapshot or parsed trace
// file): re-locks nest under sorties, SAR stripes never outlive their
// solve, and checkpoints bracket — never overlap — escalations.
func assertTraceInvariants(t *testing.T, tree *obs.Tree) {
	t.Helper()

	sorties := tree.Find("runtime.sortie")
	if len(sorties) == 0 {
		t.Fatal("trace has no runtime.sortie spans")
	}

	// Every relay re-lock happened inside some sortie: either during the
	// launch checklist or under an escalation tick.
	relocks := tree.Find("relay.relock")
	if len(relocks) == 0 {
		t.Fatal("fault schedule produced no relay.relock spans; the invariant test is vacuous")
	}
	for _, n := range relocks {
		if tree.Ancestor(n, "runtime.sortie") == nil {
			t.Errorf("relay.relock span %d has no runtime.sortie ancestor", n.ID)
		}
	}

	// No SAR stripe outlives its enclosing grid pass: every loc.stripe
	// has a solve ancestor (loc.solve / loc.solve3d), a streaming
	// integration ancestor (loc.stream.add) or a snapshot ancestor
	// (loc.stream.snapshot, whose refinement stripes its fine windows)
	// and ends no later than it.
	stripes := tree.Find("loc.stripe")
	if len(stripes) == 0 {
		t.Fatal("trace has no loc.stripe spans")
	}
	snapshotStripes := 0
	for _, n := range stripes {
		var solve *obs.Node
		for _, name := range []string{"loc.solve", "loc.solve3d", "loc.stream.add", "loc.stream.snapshot"} {
			if solve = tree.Ancestor(n, name); solve != nil {
				break
			}
		}
		if solve == nil {
			t.Errorf("loc.stripe span %d has no solve, stream or snapshot ancestor", n.ID)
			continue
		}
		if solve.Name == "loc.stream.snapshot" {
			snapshotStripes++
		}
		if n.EndNs() > solve.EndNs() {
			t.Errorf("loc.stripe span %d ends %dns after its solve", n.ID, n.EndNs()-solve.EndNs())
		}
	}
	if snapshotStripes == 0 {
		t.Error("no loc.stripe sits under a loc.stream.snapshot; the refinement was not striped")
	}
	// The streaming accumulator leaves its own fingerprints: every sortie
	// commit integrates under loc.stream.add, and the end-of-mission solve
	// snapshots under loc.stream.snapshot.
	if len(tree.Find("loc.stream.add")) == 0 {
		t.Error("trace has no loc.stream.add spans; the accumulator was never fed")
	}
	if len(tree.Find("loc.stream.snapshot")) == 0 {
		t.Error("trace has no loc.stream.snapshot spans; the mission never snapshotted the stream")
	}

	// Checkpoint spans bracket supervisor escalations: a checkpoint is
	// taken only at a sortie boundary, so no escalation interval may
	// overlap a checkpoint interval (and neither nests in the other).
	escalations := tree.Find("runtime.escalation")
	if len(escalations) == 0 {
		t.Fatal("fault schedule produced no runtime.escalation spans; the invariant test is vacuous")
	}
	for _, esc := range escalations {
		if tree.Ancestor(esc, "runtime.sortie") == nil {
			t.Errorf("runtime.escalation span %d has no runtime.sortie ancestor", esc.ID)
		}
		for _, ck := range tree.Find("runtime.checkpoint") {
			if esc.StartNs < ck.EndNs() && ck.StartNs < esc.EndNs() {
				t.Errorf("escalation span %d [%d,%d] overlaps checkpoint span %d [%d,%d]",
					esc.ID, esc.StartNs, esc.EndNs(), ck.ID, ck.StartNs, ck.EndNs())
			}
		}
	}
}

func TestTraceInvariants(t *testing.T) {
	spans, _ := recordMission(t, testConfig(7), 0)
	assertTraceInvariants(t, buildTree(t, spans))
}

// TestTraceInvariantsSurviveEncoding pushes the same trace through the
// Chrome trace_event encoder and parser: the exported file must uphold
// the identical structural invariants (what Perfetto renders is what
// the recorder saw).
func TestTraceInvariantsSurviveEncoding(t *testing.T) {
	spans, _ := recordMission(t, testConfig(7), 0)
	data, err := obs.EncodeTrace(spans)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(spans) {
		t.Fatalf("encode/parse changed span count: %d -> %d", len(spans), len(parsed))
	}
	assertTraceInvariants(t, buildTree(t, parsed))
}

// TestTraceDeterminism runs the mission twice from the same seed: the
// committed checkpoints must be byte-identical (recording must never
// perturb engine state or RNG draws) and the span trees must have the
// same structure — names and parent edges; timestamps are wall-clock
// and legitimately differ.
func TestTraceDeterminism(t *testing.T) {
	spansA, ckptA := recordMission(t, testConfig(7), 0)
	spansB, ckptB := recordMission(t, testConfig(7), 0)

	if len(ckptA) != len(ckptB) {
		t.Fatalf("checkpoint counts differ: %d vs %d", len(ckptA), len(ckptB))
	}
	for i := range ckptA {
		if !bytes.Equal(ckptA[i], ckptB[i]) {
			t.Errorf("checkpoint %d differs between identically seeded runs", i)
		}
	}

	shapeA := buildTree(t, spansA).Shape()
	shapeB := buildTree(t, spansB).Shape()
	if shapeA != shapeB {
		t.Errorf("span tree shapes differ between identically seeded runs:\n%s\nvs\n%s", shapeA, shapeB)
	}

	// A recorder-free run commits the same checkpoints: tracing is
	// observation, not participation.
	e, err := New(testConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	plain := [][]byte{e.SnapshotCtx(context.Background())}
	for e.SortiesDone() < testConfig(7).Sorties {
		if _, err := e.RunSortie(context.Background()); err != nil {
			t.Fatal(err)
		}
		plain = append(plain, e.SnapshotCtx(context.Background()))
	}
	for i := range plain {
		if !bytes.Equal(plain[i], ckptA[i]) {
			t.Errorf("checkpoint %d differs between traced and untraced runs", i)
		}
	}
}
