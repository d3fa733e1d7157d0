package runtime

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"rfly/internal/geom"
)

// plannedConfig is testConfig flying a three-station relay tour in place
// of the fixed RelayPos: the mission shape the plan provenance block
// exists to protect.
func plannedConfig(seed uint64) Config {
	cfg := testConfig(seed)
	cfg.PlanName = "coverage-aware"
	cfg.PlanHash = 0xDEADBEEFCAFEF00D
	cfg.PlanStations = []geom.Point{
		geom.P(28.2, 1.5, 1.2),
		geom.P(24.0, 1.8, 1.2),
		geom.P(31.0, 1.2, 1.2),
	}
	return cfg
}

func TestPlannedMissionStationPerSortie(t *testing.T) {
	cfg := plannedConfig(3)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stations := map[int]geom.Point{}
	e.Observer = func(o TickObs) {
		if o.Tick == 0 {
			stations[o.Sortie] = o.Deployment.RelayPlanPos
		}
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < cfg.Sorties; s++ {
		want := cfg.PlanStations[s%len(cfg.PlanStations)]
		if stations[s] != want {
			t.Errorf("sortie %d station-kept at %v, plan says %v", s, stations[s], want)
		}
	}
}

func TestPlannedMissionDeterminismAndResume(t *testing.T) {
	a := runFull(t, plannedConfig(13)).CSV()
	b := runFull(t, plannedConfig(13)).CSV()
	if a != b {
		t.Fatalf("same planned config, different CSV:\n%s\nvs\n%s", a, b)
	}

	cfg := plannedConfig(13)
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.RunSorties(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ckpt := live.SnapshotCtx(context.Background())
	r, err := Restore(cfg, ckpt)
	if err != nil {
		t.Fatalf("planned checkpoint rejected: %v", err)
	}
	if !bytes.Equal(r.SnapshotCtx(context.Background()), ckpt) {
		t.Fatal("planned checkpoint restore is not a fixed point")
	}
	if err := live.RunSorties(context.Background(), cfg.Sorties-1); err != nil {
		t.Fatal(err)
	}
	if err := r.RunSorties(context.Background(), cfg.Sorties-1); err != nil {
		t.Fatal(err)
	}
	if got, want := r.ResultCtx(context.Background()).CSV(), live.ResultCtx(context.Background()).CSV(); got != want {
		t.Fatalf("planned resume diverged:\n%s\nvs live:\n%s", got, want)
	}
}

func TestDecodePlanProvenance(t *testing.T) {
	cfg := plannedConfig(21)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunSorties(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	p, ok, err := DecodePlanProvenance(e.SnapshotCtx(context.Background()))
	if err != nil || !ok {
		t.Fatalf("planned frame: ok=%t err=%v", ok, err)
	}
	if p.Name != cfg.PlanName || p.Hash != cfg.PlanHash || !reflect.DeepEqual(p.Stations, cfg.PlanStations) {
		t.Fatalf("decoded provenance %+v does not match config", p)
	}

	// An unplanned mission's frame decodes clean with ok=false.
	ue, err := New(testConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := DecodePlanProvenance(ue.SnapshotCtx(context.Background())); ok || err != nil {
		t.Fatalf("unplanned frame: ok=%t err=%v", ok, err)
	}

	// A pre-v5 frame is no longer a checkpoint this codec reads.
	te, err := New(testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := te.RunSorties(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := DecodePlanProvenance(versionFrame(te.SnapshotCtx(context.Background()), 4)); ok || !errors.Is(err, ErrInvalidCheckpoint) {
		t.Fatalf("v4 frame: ok=%t err=%v, want ErrInvalidCheckpoint", ok, err)
	}

	// Garbage is a typed rejection, never a panic.
	if _, _, err := DecodePlanProvenance([]byte("not a checkpoint")); !errors.Is(err, ErrInvalidCheckpoint) {
		t.Fatalf("garbage rejection is not typed: %v", err)
	}
}

func TestPlanProvenanceMismatchRejected(t *testing.T) {
	cfg := plannedConfig(8)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunSorties(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ckpt := e.SnapshotCtx(context.Background())

	// A planned checkpoint offered to a mission flying a different tour —
	// or no tour at all — is a config mismatch. (The config hash catches it
	// first; the plan block is the defense in depth.)
	other := plannedConfig(8)
	other.PlanStations[1] = geom.P(20, 1.5, 1.2)
	if _, err := Restore(other, ckpt); !errors.Is(err, ErrCheckpointConfigMismatch) {
		t.Errorf("cross-plan restore error %v is not ErrCheckpointConfigMismatch", err)
	}
	if _, err := Restore(testConfig(8), ckpt); !errors.Is(err, ErrCheckpointConfigMismatch) {
		t.Errorf("planned checkpoint on unplanned config: %v is not ErrCheckpointConfigMismatch", err)
	}

	// Provenance without stations (and vice versa) is rejected at New.
	bad := testConfig(8)
	bad.PlanName = "greedy"
	if _, err := New(bad); err == nil {
		t.Error("plan name without stations accepted")
	}
	bad2 := testConfig(8)
	bad2.PlanStations = []geom.Point{geom.P(1, 2, 3)}
	if _, err := New(bad2); err == nil {
		t.Error("plan stations without a name accepted")
	}
}
