package runtime

import (
	"context"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"rfly/internal/fault"
)

// testConfig is a small mission with a fault schedule that exercises
// revertible damage (gust, droop), persistent damage that must cross a
// sortie boundary through the carryover (carrier hop), and a mid-sortie
// brown-out the supervisor swaps out of.
func testConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Sorties = 3
	cfg.TicksPerSortie = 25
	cfg.SARPointsPerSortie = 8
	cfg.Schedule = fault.Schedule{Events: []fault.Event{
		{Class: fault.WindGust, Start: 5, Duration: 4, Severity: 0.8, Param: 1.1},
		{Class: fault.GainDroop, Start: 12, Duration: 6, Severity: 0.5, Param: 9},
		{Class: fault.CarrierHop, Start: 30, Severity: 1, Param: 600e3},
		{Class: fault.BatterySag, Start: 55, Severity: 1},
	}}
	return cfg
}

func runFull(t *testing.T, cfg Config) MissionResult {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMissionDeterminism(t *testing.T) {
	a := runFull(t, testConfig(7)).CSV()
	b := runFull(t, testConfig(7)).CSV()
	if a != b {
		t.Fatalf("same seed, different CSV:\n%s\nvs\n%s", a, b)
	}
	c := runFull(t, testConfig(8)).CSV()
	if a == c {
		t.Fatal("different seeds produced identical missions; RNG not threaded")
	}
}

func TestMissionSurvivesFaults(t *testing.T) {
	res := runFull(t, testConfig(7))
	if len(res.Sorties) != 3 {
		t.Fatalf("want 3 sorties, got %d", len(res.Sorties))
	}
	total := 0
	for _, s := range res.Sorties {
		total += s.Reads
		if s.Aborted {
			t.Fatalf("sortie %d aborted under a recoverable schedule", s.Sortie)
		}
	}
	if total == 0 {
		t.Fatal("mission read nothing")
	}
	// The sortie-2 brown-out (tick 55 = sortie 2, tick 5) must have been
	// swapped out by the supervisor.
	if res.Sorties[2].BatterySwaps == 0 {
		t.Fatal("supervisor never swapped the sagging battery")
	}
	if !res.LocOK {
		t.Fatal("mission-end SAR localization did not run")
	}
}

// TestSnapshotResumeByteIdentical is the acceptance-criteria e2e: kill
// the mission at every sortie boundary, resume from the checkpoint, and
// demand the byte-identical CSV an uninterrupted run produces.
func TestSnapshotResumeByteIdentical(t *testing.T) {
	cfg := testConfig(42)
	want := runFull(t, cfg).CSV()

	for k := 0; k < cfg.Sorties; k++ {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunSorties(context.Background(), k); err != nil {
			t.Fatal(err)
		}
		snap := e.SnapshotCtx(context.Background())
		// The original engine is abandoned here — the "process died".
		e2, err := Restore(cfg, snap)
		if err != nil {
			t.Fatalf("restore after %d sorties: %v", k, err)
		}
		if e2.SortiesDone() != k {
			t.Fatalf("restored cursor %d, want %d", e2.SortiesDone(), k)
		}
		res, err := e2.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := res.CSV(); got != want {
			t.Fatalf("resume after %d sorties diverged:\n%s\nwant:\n%s", k, got, want)
		}
	}
}

// TestSnapshotAllocs pins the checkpoint encoder's allocation count at a
// mid-mission boundary: the config hash is computed once per engine, and
// the solver appends the accumulator grid into one presized buffer
// instead of growing it by doubling or copying the grid out first.
func TestSnapshotAllocs(t *testing.T) {
	cfg := DefaultConfig(41)
	cfg.SARPointsPerSortie = 8
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunSorties(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if n := len(e.SnapshotCtx(ctx)); n != 164745 {
		t.Fatalf("sortie-2 checkpoint is %d bytes, want 164745", n)
	}
	got := testing.AllocsPerRun(5, func() { e.SnapshotCtx(ctx) })
	if got != 10 {
		t.Fatalf("SnapshotCtx: %v allocs/op, want 10", got)
	}
}

// bytesPerRun reports the heap bytes f allocates per call, averaged
// over runs calls after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	for range runs {
		f()
	}
	goruntime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestCheckpointAllocBytes pins the bytes the checkpoint codec allocates
// at the TestSnapshotAllocs boundary. SnapshotCtx encodes the
// accumulator grid straight from the solver, so it allocates the blob
// and little else: no second 163,216-byte grid beside it (it allocated
// about 339 KB while it copied the grid out first). Restore allocates
// the engine New builds, the decoded grid it installs, and the captured
// state, but no copy of the solver's grid to read the lattice
// dimensions.
func TestCheckpointAllocBytes(t *testing.T) {
	cfg := DefaultConfig(41)
	cfg.SARPointsPerSortie = 8
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunSorties(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	blob := e.SnapshotCtx(ctx)
	cols, rows := e.solver.Dims()
	grid := uint64(16 * cols * rows)

	snap := bytesPerRun(8, func() { e.SnapshotCtx(ctx) })
	if limit := uint64(len(blob)) + grid/8; snap > limit {
		t.Errorf("SnapshotCtx allocates %d bytes per call, want at most %d (the %d-byte blob plus %d)",
			snap, limit, len(blob), grid/8)
	}
	fresh := bytesPerRun(8, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	restore := bytesPerRun(8, func() {
		if _, err := Restore(cfg, blob); err != nil {
			t.Fatal(err)
		}
	})
	// New already allocates the solver's grid; Restore adds the decoded
	// grid and the restored log, results and carryover, which stay well
	// under another grid's worth.
	if extra := restore - fresh; extra > grid+grid/2 {
		t.Errorf("Restore allocates %d bytes beyond New, want at most %d (one decoded %d-byte grid plus half)",
			extra, grid+grid/2, grid)
	}
	t.Logf("SnapshotCtx %d B/op (blob %d B), New %d B/op, Restore %d B/op", snap, len(blob), fresh, restore)
}

// TestMidSortieCancelReplays kills the mission in the middle of a sortie
// via context cancellation. Nothing commits: retrying on the same engine
// (or restoring the last checkpoint) replays the sortie bit-identically.
func TestMidSortieCancelReplays(t *testing.T) {
	cfg := testConfig(42)
	want := runFull(t, cfg).CSV()

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunSorties(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	snap := e.SnapshotCtx(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	fired := false
	e.Observer = func(o TickObs) {
		if !fired && o.Sortie == 1 && o.Tick == 9 {
			fired = true
			cancel()
		}
	}
	if _, err := e.RunSortie(ctx); err == nil {
		t.Fatal("cancelled sortie reported success")
	}
	if e.SortiesDone() != 1 {
		t.Fatalf("cancelled sortie committed: cursor %d", e.SortiesDone())
	}
	e.Observer = nil

	// Path 1: in-process retry on the rolled-back engine.
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CSV(); got != want {
		t.Fatalf("in-process retry diverged:\n%s\nwant:\n%s", got, want)
	}

	// Path 2: a fresh process restoring the pre-kill checkpoint.
	e2, err := Restore(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.CSV(); got != want {
		t.Fatalf("restore-after-kill diverged:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunInterruptedResult(t *testing.T) {
	cfg := testConfig(42)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.Observer = func(o TickObs) {
		if o.Sortie == 1 && o.Tick == 3 {
			cancel()
		}
	}
	res, err := e.Run(ctx)
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !res.Interrupted {
		t.Fatal("interrupted run not flagged")
	}
	if len(res.Sorties) != 1 {
		t.Fatalf("want the 1 committed sortie in the partial result, got %d", len(res.Sorties))
	}
	if !strings.Contains(res.CSV(), "# interrupted") {
		t.Fatal("CSV missing interrupted marker")
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	cfg := testConfig(3)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunSorties(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	snap := e.SnapshotCtx(context.Background())

	if _, err := Restore(cfg, snap); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	// Any single-byte flip must be caught by the CRC.
	for _, off := range []int{0, 5, 11, len(snap) / 2, len(snap) - 5, len(snap) - 1} {
		bad := append([]byte(nil), snap...)
		bad[off] ^= 0x40
		if _, err := Restore(cfg, bad); err == nil {
			t.Fatalf("corruption at offset %d accepted", off)
		}
	}
	// Truncation at every prefix length must error, never panic.
	for n := 0; n < len(snap); n += 7 {
		if _, err := Restore(cfg, snap[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// A checkpoint from a different mission config must be refused.
	other := testConfig(4)
	if _, err := Restore(other, snap); err == nil {
		t.Fatal("checkpoint resumed under a different config")
	}
	if _, err := Restore(cfg, nil); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
}

// TestBreakerAbortCapsRecovery: a permanent brown-out with no swap crew
// available inside the sortie is unrecoverable. The breaker must cap the
// recovery effort — open after MaxRecoveryFailures, sit out cooldowns,
// and abort the sortie after MaxBreakerTrips — instead of burning the
// whole sortie (or wall-clock deadline) hovering dark.
func TestBreakerAbortCapsRecovery(t *testing.T) {
	cfg := testConfig(9)
	cfg.Sorties = 2
	cfg.TicksPerSortie = 120
	cfg.SARPointsPerSortie = 0
	cfg.SwapDelayTicks = 1000 // no swap inside a sortie
	cfg.Schedule = fault.Schedule{Events: []fault.Event{
		{Class: fault.BatterySag, Start: 4, Severity: 1},
	}}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelT := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelT()
	res, err := e.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s0 := res.Sorties[0]
	if !s0.Aborted {
		t.Fatal("unrecoverable sortie did not abort")
	}
	if s0.BreakerTrips < cfg.Supervisor.MaxBreakerTrips {
		t.Fatalf("aborted with %d trips, want %d", s0.BreakerTrips, cfg.Supervisor.MaxBreakerTrips)
	}
	// Recovery effort is capped: sag at tick 4, then at most
	// trips×(failures+cooldown) supervision ticks before the abort — far
	// short of the 120-tick sortie.
	sc := cfg.Supervisor
	maxTicks := 4 + sc.MaxBreakerTrips*(sc.MaxRecoveryFailures+sc.CooldownTicks) + 2
	if got := s0.Attempts / len(cfg.Tags); got > maxTicks {
		t.Fatalf("aborted sortie burned %d ticks, breaker should cap near %d", got, maxTicks)
	}
	// The landing swaps the battery: sortie 1 flies clean.
	s1 := res.Sorties[1]
	if s1.Aborted {
		t.Fatal("post-swap sortie aborted")
	}
	if s1.Reads == 0 {
		t.Fatal("post-swap sortie read nothing")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := DefaultConfig(1)
	cfg.Tags = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("tagless mission accepted")
	}
}

func TestClipSchedule(t *testing.T) {
	s := fault.Schedule{Events: []fault.Event{
		{Class: fault.WindGust, Start: 2, Duration: 10},  // clipped to sortie end
		{Class: fault.CarrierHop, Start: 5},              // permanent, stays permanent
		{Class: fault.GainDroop, Start: 12, Duration: 2}, // next sortie
	}}
	got := clipSchedule(s, 0, 8)
	if len(got.Events) != 2 {
		t.Fatalf("want 2 events in window, got %d", len(got.Events))
	}
	if got.Events[0].Duration != 6 {
		t.Fatalf("gust not clipped to sortie: duration %d", got.Events[0].Duration)
	}
	if got.Events[1].Duration != 0 {
		t.Fatalf("permanent event gained a duration: %d", got.Events[1].Duration)
	}
	got = clipSchedule(s, 8, 8)
	if len(got.Events) != 1 || got.Events[0].Start != 4 {
		t.Fatalf("second window wrong: %+v", got.Events)
	}
}
