package runtime

import (
	"context"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
)

// goldenBits fingerprints one mission's observable output: the FNV-64a
// hash of every blob CheckpointSink published, in order, the hash of the
// result CSV, and the raw bits of the mission-end localization.
type goldenBits struct {
	Ckpts      []uint64
	CSV        uint64
	LocX, LocY uint64
}

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// locateConfig is the shape of a locate request as fleet.MissionConfig
// builds it (runtime cannot import fleet): the corridor-east region,
// 4 sorties × 12 ticks, 8 SAR points, one tag inside the solve window,
// and jittered retry backoff.
func locateConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.TicksPerSortie = 12
	cfg.SARPointsPerSortie = 8
	cfg.Retry.JitterSlots = 2
	cfg.Tags = []TagSpec{{ID: 7, X: 29, Y: 1.5, Z: 1}}
	return cfg
}

// flyGolden flies cfg to the end and fingerprints it. With restoreAt > 0
// the mission is first flown to that sortie boundary, and the rest is
// flown by an engine restored from that boundary's checkpoint; the
// fingerprint then covers the restoring checkpoint and everything the
// restored engine publishes.
func flyGolden(t *testing.T, cfg Config, restoreAt int) goldenBits {
	t.Helper()
	ctx := context.Background()
	var g goldenBits
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if restoreAt > 0 {
		if err := e.RunSorties(ctx, restoreAt); err != nil {
			t.Fatal(err)
		}
		snap := e.SnapshotCtx(ctx)
		g.Ckpts = append(g.Ckpts, fnv64a(snap))
		if e, err = Restore(cfg, snap); err != nil {
			t.Fatal(err)
		}
	}
	e.CheckpointSink = func(_ int, ckpt []byte) { g.Ckpts = append(g.Ckpts, fnv64a(ckpt)) }
	res, err := e.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	g.CSV = fnv64a([]byte(res.CSV()))
	g.LocX, g.LocY = math.Float64bits(res.LocX), math.Float64bits(res.LocY)
	return g
}

// TestMissionGoldenBits holds fault-free missions to bits recorded before
// later sorties stopped re-measuring the relay's isolation: every
// checkpoint blob, the result CSV and the localization must stay exactly
// as they were.
func TestMissionGoldenBits(t *testing.T) {
	cases := []struct {
		name      string
		cfg       Config
		restoreAt int
		want      goldenBits
	}{
		{name: "default-1", cfg: DefaultConfig(1),
			want: goldenBits{Ckpts: []uint64{0x796aa423c9e68272, 0xdc484c7e9df134da, 0x9ec7c5671e668662, 0x7c1933d6089766b1}, CSV: 0xe36c2cb2363b707c}},
		{name: "default-2", cfg: DefaultConfig(2),
			want: goldenBits{Ckpts: []uint64{0x9ea5128361d2641, 0x9a113f2e10f1f2f8, 0xbcea234474e20958, 0xc67d8cab0e5032ab}, CSV: 0x709baec77a0690b1}},
		{name: "default-3", cfg: DefaultConfig(3),
			want: goldenBits{Ckpts: []uint64{0x9f576f09942b570, 0x9f28719454419356, 0xd3a9b626afb89705, 0xe249a7bac150d163}, CSV: 0x7f4220406f0c997c}},
		{name: "locate", cfg: locateConfig(11),
			want: goldenBits{Ckpts: []uint64{0xed3d654966ed7d3, 0x661724259e5e65db, 0x5505dddce987b25f, 0xd30d134c29a35d8d}, CSV: 0x494a18f6f42554c7, LocX: 0x403cdeb851eb851f, LocY: 0x3ffbd70a3d70a3d7}},
		{name: "planned", cfg: withoutFaults(plannedConfig(5)),
			want: goldenBits{Ckpts: []uint64{0x7bcc7253bda76dc0, 0x29798df2074ac078, 0x66c85988b964cefd}, CSV: 0x348512c9a2a0da4b, LocX: 0x403c1c28f5c28f5b, LocY: 0x3fec7ae147ae147d}},
		{name: "swarm", cfg: withoutFaults(swarmConfig(6)),
			want: goldenBits{Ckpts: []uint64{0x2a6f0925030901e8, 0x81404a7616286f2c, 0xa3226e3727539f38}, CSV: 0x3108cdb451d7c2c7, LocX: 0x4040accccccccccd, LocY: 0x3ff851eb851eb851}},
		{name: "restore-2", cfg: locateConfig(13), restoreAt: 2,
			want: goldenBits{Ckpts: []uint64{0xa34ee4b0ffdda13, 0x91820a2a2ce0d48, 0x7759751b2cc57fda}, CSV: 0x9ed17d9e6ab09d20, LocX: 0x403cd9999999999a, LocY: 0x3ff7333333333334}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := flyGolden(t, tc.cfg, tc.restoreAt)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("mission bits moved:\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}
}

// withoutFaults strips cfg's fault schedule.
func withoutFaults(cfg Config) Config {
	cfg.Schedule.Events = nil
	return cfg
}
