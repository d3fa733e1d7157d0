package loc

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// heatmapHash is FNV-64a over the little-endian bits of every heatmap cell.
func heatmapHash(data []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestLocalizeGoldenBits pins the batch solve's output bits on the
// streaming-equivalence scenarios. The table was recorded from the
// original per-cell projection scan, so it holds the batch path to those
// bits independently of the stream fold it now runs on: every config
// combination of an explicit Region vs trajectory bounds plus Margin,
// amplitude-weighted vs PhaseOnly, and serial vs GOMAXPROCS workers.
func TestLocalizeGoldenBits(t *testing.T) {
	golden := []struct {
		scenario      string
		region, phase bool
		x, y, peak    uint64
		heat          uint64
	}{
		{"clean-los", true, false, 0x3ff8000000000000, 0x4000000000000000, 0x40268038189970fd, 0xe9366fd91e3d6de2},
		{"clean-los", true, true, 0x3ff8000000000000, 0x4000000000000000, 0x4044000000000000, 0x4f21e72a5055f5e3},
		{"clean-los", false, false, 0x3ff8000000000000, 0x3fffffffffffffff, 0x40268038189970fd, 0xe89e688b5d5ba1f5},
		{"clean-los", false, true, 0x3ff8000000000000, 0x3fffffffffffffff, 0x4044000000000000, 0xc4b5e14cdfba9f2a},
		{"multipath-ghost", true, false, 0x3ff3333333333334, 0x3ff0000000000000, 0x4038dc9348c5a699, 0xea4b1f42c518d632},
		{"multipath-ghost", true, true, 0x3ff3333333333334, 0x3ff0000000000000, 0x4041eff9f8b20ae1, 0x8f58962720231c0b},
		{"multipath-ghost", false, false, 0x3ff3333333333334, 0xbfefffffffffffff, 0x4038dc9348c5a69a, 0x74e2571adb437b8e},
		{"multipath-ghost", false, true, 0x3ff3333333333334, 0xbfefffffffffffff, 0x4041eff9f8b20ae2, 0x8a64b80f89cbf7df},
		{"noisy", true, false, 0x3fffd70a3d70a3d8, 0x3ff7ae147ae147ae, 0x402b9837c9d6fdd1, 0x5fcc9212addf5064},
		{"noisy", true, true, 0x3fffd70a3d70a3d8, 0x3ff7ae147ae147ae, 0x404334615780158c, 0x7b94601d8b0ede69},
		{"noisy", false, false, 0x3fffd70a3d70a3d8, 0xbff7333333333332, 0x402b5a2faeab00e2, 0x52ec15adb960eaee},
		{"noisy", false, true, 0x3fffd70a3d70a3d8, 0xbff7333333333332, 0x4042ffaadb0ef731, 0x5d4c3bf42db63b39},
		{"phase-only", true, false, 0x3ff6666666666668, 0x4000cccccccccccc, 0x4023e3e9e15c8fec, 0x6bf4b6d2299464ca},
		{"phase-only", true, true, 0x3ff6666666666668, 0x4000cccccccccccc, 0x404365c9f017c1f6, 0x9e3518ca329cb863},
		{"phase-only", false, false, 0x3ff6666666666668, 0x4000cccccccccccd, 0x4023e3e9e15c8fed, 0xa902ace0bdedbe60},
		{"phase-only", false, true, 0x3ff6666666666668, 0x4001333333333333, 0x404333a01574d77c, 0xa25319f7a1297ff3},
	}
	scenarios := map[string]streamScenario{}
	for _, sc := range streamScenarios() {
		scenarios[sc.name] = sc
	}
	for _, g := range golden {
		sc, ok := scenarios[g.scenario]
		if !ok {
			t.Fatalf("unknown scenario %q", g.scenario)
		}
		for _, workers := range []int{1, 0} {
			cfg := sc.cfg
			if !g.region {
				cfg.Region = nil
			}
			cfg.PhaseOnly = g.phase
			cfg.Workers = workers
			res, err := LocalizeCtx(context.Background(), sc.meas, trajOf(sc.meas), cfg)
			if err != nil {
				t.Fatalf("%+v/w%d: %v", g, workers, err)
			}
			got := [4]uint64{math.Float64bits(res.Location.X), math.Float64bits(res.Location.Y),
				math.Float64bits(res.Peak), heatmapHash(res.Heatmap.Data)}
			if want := [4]uint64{g.x, g.y, g.peak, g.heat}; got != want {
				t.Errorf("%s region=%v phase=%v w%d: bits %#016x, want %#016x",
					g.scenario, g.region, g.phase, workers, got, want)
			}
		}
	}

	meas, traj, _ := robustScenario(45, 15, 32)
	rob, err := LocalizeRobustCtx(context.Background(), meas, traj, robustCfg(915e6))
	if err != nil {
		t.Fatal(err)
	}
	if sx, sy := math.Float64bits(rob.SigmaX), math.Float64bits(rob.SigmaY); sx != 0x3fb3a6bc2e2b9913 || sy != 0x3fe9006ff507d740 {
		t.Errorf("robust σ bits (%#016x, %#016x), want (0x3fb3a6bc2e2b9913, 0x3fe9006ff507d740)", sx, sy)
	}
}
