package rfly_test

// Benchmarks: one per table/figure of the paper's evaluation (regenerating
// the experiment at reduced trial counts per iteration and reporting the
// headline statistic as a custom metric), plus microbenchmarks of the hot
// paths and ablation benches for the design choices DESIGN.md calls out.
//
// Regenerate everything at paper scale with cmd/rfly-experiments; these
// benches measure the cost and track the statistics.

import (
	"context"
	"math"
	"testing"

	"rfly"
	"rfly/internal/drone"
	"rfly/internal/epc"
	"rfly/internal/experiments"
	"rfly/internal/geom"
	"rfly/internal/loc"
	"rfly/internal/propagation"
	"rfly/internal/reader"
	"rfly/internal/relay"
	"rfly/internal/rng"
	"rfly/internal/signal"
	"rfly/internal/sim"
	"rfly/internal/stats"
	"rfly/internal/tag"
	"rfly/internal/world"
)

// --- Figure/table benches -------------------------------------------------

func BenchmarkFigure9Isolation(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure9(5, uint64(i+1))
		m, _ := res.Medians()
		med = m[relay.InterDownlink]
	}
	b.ReportMetric(med, "interDL-median-dB")
}

func BenchmarkFigure10Phase(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure10(10, uint64(i+1))
		med = stats.Quantile(res.MirroredDeg, 0.5)
	}
	b.ReportMetric(med, "mirrored-median-deg")
}

func BenchmarkIsolationRangeTable(b *testing.B) {
	var r float64
	for i := 0; i < b.N; i++ {
		rows := experiments.IsolationRangeTable()
		r = rows[4].RangeM // 70 dB row
	}
	b.ReportMetric(r, "range-at-70dB-m")
}

func BenchmarkFigure11ReadRange(b *testing.B) {
	cfg := experiments.DefaultFigure11Config()
	cfg.MinDist, cfg.MaxDist, cfg.Step = 10, 50, 20
	cfg.TrialsPerPoint = 10
	var relay50 float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure11(cfg, uint64(i+1))
		relay50 = res.RelayLoS[len(res.RelayLoS)-1]
	}
	b.ReportMetric(relay50, "relayLoS-50m-%")
}

func BenchmarkFigure12Localization(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure12(4, uint64(i+1))
		med = stats.Quantile(res.ErrorsM, 0.5)
	}
	b.ReportMetric(med*100, "median-err-cm")
}

func BenchmarkFigure13Aperture(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure13(2, uint64(i+1))
		last = res.SAR.Med[len(res.SAR.Med)-1]
	}
	b.ReportMetric(last*100, "sar-2.5m-aperture-err-cm")
}

func BenchmarkFigure14Range(b *testing.B) {
	var far float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure14(2, uint64(i+1))
		far = res.SAR.Med[len(res.SAR.Med)-1]
	}
	b.ReportMetric(far*100, "sar-50m-err-cm")
}

func BenchmarkFigure6Heatmap(b *testing.B) {
	var errM float64
	for i := 0; i < b.N; i++ {
		los, _, err := experiments.Figure6(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		errM = los.ErrorM
	}
	b.ReportMetric(errM*100, "los-err-cm")
}

func BenchmarkPowerBudgetTable(b *testing.B) {
	var f float64
	for i := 0; i < b.N; i++ {
		f = experiments.PowerBudgetTable().BatteryFraction
	}
	b.ReportMetric(f*100, "battery-%")
}

// --- Ablation benches -----------------------------------------------------

// BenchmarkAblationNoMirror quantifies what the mirrored architecture buys:
// the phase error with independent synthesizers.
func BenchmarkAblationNoMirror(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure10(8, uint64(i+1))
		med = stats.Quantile(res.NoMirrorDeg, 0.5)
	}
	b.ReportMetric(med, "nomirror-median-deg")
}

// BenchmarkAblationAnalogRelay quantifies the isolation gap to the
// amplify-and-forward baseline.
func BenchmarkAblationAnalogRelay(b *testing.B) {
	src := rng.New(1)
	a := relay.NewAnalogRelay(rng.New(2))
	var iso float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iso, _ = a.MeasureIsolation(relay.InterDownlink, src)
	}
	b.ReportMetric(iso, "analog-iso-dB")
}

// BenchmarkAblationFilterTaps sweeps the relay LPF order: fewer taps →
// less inter-link rejection (DESIGN.md §4 "isolation is measured").
func BenchmarkAblationFilterTaps(b *testing.B) {
	for _, taps := range []int{31, 63, 127} {
		taps := taps
		b.Run(benchName("taps", taps), func(b *testing.B) {
			cfg := relay.DefaultConfig()
			cfg.LPFTaps = taps
			var iso float64
			for i := 0; i < b.N; i++ {
				r := relay.New(cfg, rng.New(uint64(i+1)))
				r.Lock(0)
				iso, _ = r.MeasureIsolation(relay.InterDownlink, rng.New(uint64(i+99)))
			}
			b.ReportMetric(iso, "interDL-dB")
		})
	}
}

// BenchmarkAblationGridResolution sweeps the SAR fine-grid step: coarser
// grids are faster but cap accuracy.
func BenchmarkAblationGridResolution(b *testing.B) {
	meas, traj := syntheticSAR()
	for _, res := range []float64{0.05, 0.02, 0.01} {
		res := res
		b.Run(benchName("cm", int(res*100)), func(b *testing.B) {
			cfg := loc.DefaultConfig(915e6)
			cfg.FineRes = res
			cfg.Region = &loc.Region{X0: -2, Y0: 0.2, X1: 5, Y1: 5}
			var e float64
			for i := 0; i < b.N; i++ {
				out, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg)
				if err != nil {
					b.Fatal(err)
				}
				e = out.Location.Dist2D(geom.P2(1.5, 2.0))
			}
			b.ReportMetric(e*100, "err-cm")
		})
	}
}

// --- Microbenchmarks of the hot paths --------------------------------------

func BenchmarkRelayForwardDownlink(b *testing.B) {
	r := relay.New(relay.DefaultConfig(), rng.New(1))
	r.Lock(0)
	x := signal.Tone(4096, 50e3, r.Cfg.Fs, 0, 1e-3)
	b.SetBytes(int64(len(x) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ForwardDownlink(x, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRelayForwardUplink(b *testing.B) {
	r := relay.New(relay.DefaultConfig(), rng.New(1))
	r.Lock(0)
	x := signal.Tone(4096, r.Cfg.ShiftHz+500e3, r.Cfg.Fs, 0, 1e-3)
	b.SetBytes(int64(len(x) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ForwardUplink(x, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFM0EncodeDecode(b *testing.B) {
	bits := epc.TagReply(epc.NewEPC96(1, 2, 3, 4, 5, 6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chips := epc.FM0Encode(bits)
		if _, err := epc.FM0Decode(epc.ChipsToFloat(chips)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPIEEncodeDecode(b *testing.B) {
	cfg := epc.DefaultPIE()
	frame := epc.Query{Q: 4}.Bits()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := cfg.EncodeEnvelope(frame, true, 8e6)
		if _, err := epc.DecodeEnvelope(env, 8e6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReaderDecodeBackscatter(b *testing.B) {
	rd := reader.New(reader.DefaultConfig(), rng.New(1))
	bits := epc.TagReply(epc.NewEPC96(1, 2, 3, 4, 5, 6))
	chips := epc.FM0Encode(bits)
	wf := tag.Waveform(chips, 2, rd.Cfg.Fs, 500e3)
	rx := make([]complex128, 200+len(wf)+100)
	for i, v := range wf {
		rx[200+i] = v * 1e-3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.DecodeBackscatter(rx, 500e3, 0, 400, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChannelModelWarehouse(b *testing.B) {
	m := propagation.NewModel(world.Warehouse(30, 20, 4), 915e6)
	a := geom.P(2, 2, 1)
	c := geom.P(25, 17, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.OneWay(a, c, 0, 6, 0)
	}
}

func BenchmarkSARLocalize(b *testing.B) {
	meas, traj := syntheticSAR()
	cfg := loc.DefaultConfig(915e6)
	cfg.Region = &loc.Region{X0: -2, Y0: 0.2, X1: 5, Y1: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGen2InventoryRound(b *testing.B) {
	d := sim.New(sim.Config{Scene: world.OpenSpace(), ReaderPos: geom.P2(0, 0),
		UseRelay: true, RelayPos: geom.P2(20, 0)}, 1)
	for i := 0; i < 8; i++ {
		d.AddTag(epc.NewEPC96(uint16(i), 1, 2, 3, 4, 5), geom.P(20+float64(i)*0.3, 1, 1))
	}
	qalg := epc.NewQAlgorithm(4, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Reader.RunInventoryRound(d, epc.S0, epc.TargetA, qalg)
	}
}

func BenchmarkSystemSurvey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := rfly.New(rfly.Options{ReaderPos: rfly.At(-10, 1, 1.5), Seed: uint64(i + 1)})
		if err := sys.RegisterItem("crate", rfly.NewEPC96(1, 2, 3, 4, 5, 6), rfly.At(1.5, 2, 0)); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Survey(rfly.Line(rfly.At(0, 0, 0.8), rfly.At(3, 0, 0.8), 30),
			rfly.SurveyOptions{SearchRegion: &rfly.Region{X0: -2, Y0: 0.3, X1: 5, Y1: 5}}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- helpers ----------------------------------------------------------------

func syntheticSAR() ([]loc.Measurement, geom.Trajectory) {
	d := sim.New(sim.Config{Scene: world.OpenSpace(), ReaderPos: geom.P(-12, 1, 1.2),
		UseRelay: true, RelayPos: geom.P(0, 0, 0.8)}, 99)
	tg := d.AddTag(epc.NewEPC96(7, 7, 7, 7, 7, 7), geom.P(1.5, 2.0, 0))
	plan := geom.Line(geom.P(0, 0, 0.8), geom.P(3, 0, 0.8), 40)
	flight, _ := drone.Bebop2().FlyCtx(context.Background(), plan, drone.DefaultOptiTrack(), rng.New(99).Split("f"))
	cap, err := d.CollectSARCtx(context.Background(), flight, tg, nil)
	if err != nil {
		panic(err)
	}
	return cap.Disentangled, flight.MeasuredTrajectory()
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "=" + string(buf[i:])
}

// --- Extension benches ------------------------------------------------------

func BenchmarkAntiCollision(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		points := experiments.AntiCollision([]int{32}, uint64(i+1))
		eff = points[0].Efficiency
	}
	b.ReportMetric(eff, "slot-efficiency")
}

func BenchmarkDaisyChainForward(b *testing.B) {
	cfg := relay.DefaultConfig()
	cfg.ShiftHz = 1.2e6
	r1 := relay.New(cfg, rng.New(1))
	cfg2 := relay.DefaultConfig()
	cfg2.ShiftHz = 1.0e6
	r2 := relay.New(cfg2, rng.New(2))
	chain, err := relay.NewDaisyChain(0, signal.Tone(16384, 0, cfg.Fs, 0.1, 1e-3), r1, r2)
	if err != nil {
		b.Fatal(err)
	}
	x := signal.Tone(4096, 50e3, cfg.Fs, 0, 1e-4)
	b.SetBytes(int64(len(x) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chain.ForwardDownlink(x, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelfLocalize(b *testing.B) {
	// Embedded-tag channels along an L-shaped path, offset (3, 4).
	reader := geom.P(0, 0, 1.5)
	var meas []loc.Measurement
	k := 4 * 3.141592653589793 * 915e6 / signal.C
	for i := 0; i <= 25; i++ {
		p := geom.P(3+0.15*float64(i), 4+0.05*float64(i%4), 1)
		d := p.Dist(reader)
		h := cmplxRect(1/(d*d), -k*d)
		meas = append(meas, loc.Measurement{Pos: geom.P(p.X-3, p.Y-4, p.Z), H: h})
	}
	cfg := loc.DefaultSelfLocalizeConfig(915e6, 6)
	b.ResetTimer()
	var off geom.Vec
	for i := 0; i < b.N; i++ {
		v, _, err := loc.SelfLocalize(meas, reader, cfg)
		if err != nil {
			b.Fatal(err)
		}
		off = v
	}
	b.ReportMetric(off.X, "offset-x-m")
}

func BenchmarkMillerDecode(b *testing.B) {
	rd := reader.New(reader.DefaultConfig(), rng.New(1))
	bits := epc.BitsFromUint(0xC0DE, 16)
	chips, err := epc.MillerEncode(bits, epc.Miller4)
	if err != nil {
		b.Fatal(err)
	}
	wf := tag.Waveform(chips, 2, rd.Cfg.Fs, 500e3)
	rx := make([]complex128, 200+len(wf)+200)
	for i, v := range wf {
		rx[200+i] = v * 1e-3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.DecodeBackscatterMiller(rx, 500e3, epc.Miller4, 0, 400, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHopFollowLock(b *testing.B) {
	r := relay.New(relay.DefaultConfig(), rng.New(1))
	pat := relay.FCCHopPattern(r.ISMChannels(), 7)
	rx := signal.Tone(8000, pat.Channels[2], r.Cfg.Fs, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := r.FollowHops(pat, rx)
		if err != nil {
			b.Fatal(err)
		}
		dwell := signal.Tone(8000, f.Next(), r.Cfg.Fs, 0, 1)
		if _, err := f.Advance(dwell); err != nil {
			b.Fatal(err)
		}
	}
}

func cmplxRect(r, theta float64) complex128 {
	return complex(r*math.Cos(theta), r*math.Sin(theta))
}

func BenchmarkSelfLocalizationExperiment(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		res := experiments.SelfLocalization(3, uint64(i+1))
		med = stats.Quantile(res.ErrorsM, 0.5)
	}
	b.ReportMetric(med*100, "median-err-cm")
}

func BenchmarkDaisyChainRange(b *testing.B) {
	var r2 float64
	for i := 0; i < b.N; i++ {
		rows := experiments.DaisyChainRange(2, uint64(i+1))
		r2 = rows[1].TotalRangeM
	}
	b.ReportMetric(r2, "2-hop-range-m")
}

func BenchmarkLocalization3D(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		res := experiments.Localization3D(2, uint64(i+1))
		med = stats.Quantile(res.ErrorsZ, 0.5)
	}
	b.ReportMetric(med*100, "height-err-cm")
}

// BenchmarkAblationPhaseOnly compares amplitude-weighted (Eq. 12 as
// written) vs unit-amplitude SAR projections on the same noisy captures.
func BenchmarkAblationPhaseOnly(b *testing.B) {
	meas, traj := syntheticSAR()
	for _, phaseOnly := range []bool{false, true} {
		phaseOnly := phaseOnly
		name := "amplitude"
		if phaseOnly {
			name = "phase-only"
		}
		b.Run(name, func(b *testing.B) {
			cfg := loc.DefaultConfig(915e6)
			cfg.Region = &loc.Region{X0: -2, Y0: 0.2, X1: 5, Y1: 5}
			cfg.PhaseOnly = phaseOnly
			var e float64
			for i := 0; i < b.N; i++ {
				out, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg)
				if err != nil {
					b.Fatal(err)
				}
				e = out.Location.Dist2D(geom.P2(1.5, 2.0))
			}
			b.ReportMetric(e*100, "err-cm")
		})
	}
}

// BenchmarkCoverageTable regenerates the §1 month→day comparison: Gen2
// throughput → flight plan → battery sorties → speedup over manual
// counting. The metric is the retail-floor scenario's speedup factor.
func BenchmarkCoverageTable(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows := experiments.CoverageTable(uint64(i + 1))
		speedup = rows[1].Speedup
	}
	b.ReportMetric(speedup, "retail-speedup-x")
}

// BenchmarkMissionPlan measures the pure flight-planning cost (no
// protocol simulation): lawnmower layout plus endurance accounting for a
// 9,600 m² warehouse zone.
func BenchmarkMissionPlan(b *testing.B) {
	m := drone.Mission{X0: 0, Y0: 0, X1: 120, Y1: 80, AltitudeM: 1.5, ReadRadiusM: 5, Overlap: 0.15}
	p, e := drone.Bebop2(), drone.Bebop2Endurance()
	var sorties int
	for i := 0; i < b.N; i++ {
		plan, err := m.PlanCoverage(p, e)
		if err != nil {
			b.Fatal(err)
		}
		sorties = plan.Sorties
	}
	b.ReportMetric(float64(sorties), "sorties")
}

// BenchmarkMillerRobustness measures the waveform-level FM0-vs-Miller
// sweep and reports the Miller-2 success rate at the +6 dB operating
// point where FM0 has already collapsed.
func BenchmarkMillerRobustness(b *testing.B) {
	var m2 float64
	for i := 0; i < b.N; i++ {
		res := experiments.MillerRobustness(6, uint64(i+1))
		m2 = res.SuccessAt(epc.Miller2, 6)
	}
	b.ReportMetric(m2, "miller2-at-6dB-%")
}
