package experiments

import (
	"context"
	"strings"
	"testing"

	"rfly/internal/runtime"
)

// Seed-determinism acceptance: the same seed yields a byte-identical
// CSV across two independent runs...
func TestMissionCSVDeterministic(t *testing.T) {
	a, err := MissionCSV(context.Background(), 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MissionCSV(context.Background(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different CSV:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "sortie,") {
		t.Fatalf("CSV missing header:\n%s", a)
	}
	if lines := strings.Count(a, "\n"); lines < 4 {
		t.Fatalf("want header + 3 sorties, got %d lines:\n%s", lines, a)
	}
}

// ...and across a mid-mission kill/resume.
func TestMissionCSVKillResume(t *testing.T) {
	cfg := DefaultMissionConfig(11)
	want, err := MissionCSV(context.Background(), 11)
	if err != nil {
		t.Fatal(err)
	}

	e, err := runtime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunSorties(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	snap := e.SnapshotCtx(context.Background())

	// The process dies mid-sortie 1...
	ctx, cancel := context.WithCancel(context.Background())
	e.Observer = func(o runtime.TickObs) {
		if o.Sortie == 1 && o.Tick == 7 {
			cancel()
		}
	}
	if _, err := e.RunSortie(ctx); err == nil {
		t.Fatal("cancelled sortie reported success")
	}

	// ...and a fresh one resumes from the checkpoint.
	e2, err := runtime.Restore(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CSV(); got != want {
		t.Fatalf("kill/resume diverged:\n%s\nwant:\n%s", got, want)
	}
}
