package sim

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"rfly/internal/drone"
	"rfly/internal/epc"
	"rfly/internal/geom"
	"rfly/internal/loc"
	"rfly/internal/reader"
	"rfly/internal/relay"
	"rfly/internal/world"
)

func openDeployment(useRelay bool, readerPos, relayPos geom.Point, seed uint64) *Deployment {
	return New(Config{
		Scene:     world.OpenSpace(),
		ReaderPos: readerPos,
		UseRelay:  useRelay,
		RelayPos:  relayPos,
	}, seed)
}

func TestDirectBudgetNearTag(t *testing.T) {
	d := openDeployment(false, geom.P2(0, 0), geom.Point{}, 1)
	tg := d.AddTag(epc.NewEPC96(1, 0, 0, 0, 0, 0), geom.P2(3, 0))
	b := d.LinkBudget(tg)
	if !b.Powered {
		t.Fatalf("tag at 3 m unpowered: %+v", b)
	}
	if b.SNRdB < 20 {
		t.Fatalf("SNR at 3 m = %v", b.SNRdB)
	}
	if b.ViaRelay {
		t.Fatal("direct budget claims relay")
	}
}

func TestDirectBudgetFarTagUnpowered(t *testing.T) {
	d := openDeployment(false, geom.P2(0, 0), geom.Point{}, 2)
	tg := d.AddTag(epc.NewEPC96(2, 0, 0, 0, 0, 0), geom.P2(15, 0))
	b := d.LinkBudget(tg)
	if b.Powered {
		t.Fatalf("tag at 15 m powered: %.1f dBm", b.TagRxDBm)
	}
	// The paper's Fig. 11 boundary: direct reads die near 10 m.
	tg10 := d.AddTag(epc.NewEPC96(3, 0, 0, 0, 0, 0), geom.P2(10.5, 0))
	if b := d.LinkBudget(tg10); b.Powered {
		t.Fatalf("tag at 10.5 m powered: %.1f dBm", b.TagRxDBm)
	}
	tg6 := d.AddTag(epc.NewEPC96(4, 0, 0, 0, 0, 0), geom.P2(6, 0))
	if b := d.LinkBudget(tg6); !b.Powered {
		t.Fatalf("tag at 6 m unpowered: %.1f dBm", b.TagRxDBm)
	}
}

func TestRelayExtendsRange(t *testing.T) {
	// The headline Fig. 11 effect: reader 50 m away, relay 2 m from the
	// tag → powered and decodable.
	readerPos := geom.P2(0, 0)
	relayPos := geom.P2(50, 0)
	d := openDeployment(true, readerPos, relayPos, 3)
	tg := d.AddTag(epc.NewEPC96(5, 0, 0, 0, 0, 0), geom.P2(52, 0))
	b := d.LinkBudget(tg)
	if !b.RelayStable {
		t.Fatalf("relay unstable: iso %+v gains %+v", d.Iso, d.Gains)
	}
	if !b.Powered {
		t.Fatalf("tag unpowered through relay at 50 m: %.1f dBm", b.TagRxDBm)
	}
	if !b.ViaRelay {
		t.Fatal("budget not via relay")
	}
	if b.SNRdB < 10 {
		t.Fatalf("relay SNR = %v", b.SNRdB)
	}
	// Without the relay the same geometry is dead.
	d2 := openDeployment(false, readerPos, geom.Point{}, 3)
	tg2 := d2.AddTag(epc.NewEPC96(5, 0, 0, 0, 0, 0), geom.P2(52, 0))
	if b2 := d2.LinkBudget(tg2); b2.Powered {
		t.Fatal("52 m direct read powered?!")
	}
}

func TestUnstableRelayFailsEverything(t *testing.T) {
	d := openDeployment(true, geom.P2(0, 0), geom.P2(10, 0), 4)
	// Force an infeasible gain plan.
	d.Gains.Stable = false
	tg := d.AddTag(epc.NewEPC96(6, 0, 0, 0, 0, 0), geom.P2(11, 0))
	b := d.LinkBudget(tg)
	if b.RelayStable || b.Powered {
		t.Fatalf("unstable relay still served: %+v", b)
	}
	if d.ReadAttempt(tg) {
		t.Fatal("read attempt succeeded on unstable relay")
	}
}

func TestInventoryThroughRelay(t *testing.T) {
	d := openDeployment(true, geom.P2(0, 0), geom.P2(30, 0), 5)
	want := map[string]bool{}
	for i := 0; i < 4; i++ {
		tg := d.AddTag(epc.NewEPC96(uint16(i), 7, 7, 7, 7, 7), geom.P2(30+float64(i), 1))
		want[tg.EPC.String()] = true
	}
	qalg := epc.NewQAlgorithm(3, 0.3)
	got := map[string]bool{}
	for round := 0; round < 25 && len(got) < len(want); round++ {
		stats := d.Reader.RunInventoryRound(d, epc.S0, epc.TargetA, qalg)
		for _, rd := range stats.Reads {
			if want[rd.EPC.String()] { // the embedded tag is also read
				got[rd.EPC.String()] = true
			}
		}
	}
	// The embedded tag may also be read; all four environment tags must be.
	for e := range want {
		if !got[e] {
			t.Fatalf("tag %s not inventoried (got %v)", e, got)
		}
	}
}

func TestEmbeddedTagObservable(t *testing.T) {
	d := openDeployment(true, geom.P2(0, 0), geom.P2(20, 0), 6)
	obs := d.Send(epc.Query{Q: 0})
	foundEmb := false
	for _, o := range obs {
		if o.Tag == d.EmbeddedTag {
			foundEmb = true
		}
	}
	if !foundEmb {
		t.Fatal("embedded tag did not answer the query")
	}
}

func TestChannelPhaseEncodesGeometry(t *testing.T) {
	// Disentangled channel phase must track the relay→tag round trip.
	d := openDeployment(true, geom.P2(-20, 0), geom.P2(0, 0), 7)
	d.ShadowSigmaDB = 0
	d.PhaseJitterDeg = 0
	tg := d.AddTag(epc.NewEPC96(8, 0, 0, 0, 0, 0), geom.P2(2, 0))
	hT, err := d.channelTo(tg, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	hE, err := d.embeddedChannel(math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	dis := hT / hE
	f2 := d.Model.Freq + d.Relay.Cfg.ShiftHz
	wantPhase := -2 * math.Pi * f2 * 2 * 2.0 / 299792458.0
	got := cmplx.Phase(dis)
	diff := math.Mod(got-wantPhase, 2*math.Pi)
	if diff > math.Pi {
		diff -= 2 * math.Pi
	}
	if diff < -math.Pi {
		diff += 2 * math.Pi
	}
	if math.Abs(diff) > 0.02 {
		t.Fatalf("disentangled phase off by %v rad", diff)
	}
}

func TestCollectSARAndLocalize(t *testing.T) {
	// End-to-end headline: fly the drone, capture channels through the
	// relay, disentangle, localize — error should be paper-scale (tens of
	// centimeters at most).
	d := openDeployment(true, geom.P2(-15, 1), geom.P2(0, 0), 8)
	d.ShadowSigmaDB = 0
	tagPos := geom.P(1.5, 2.0, 0)
	tg := d.AddTag(epc.NewEPC96(9, 0, 0, 0, 0, 0), tagPos)

	plan := geom.Line(geom.P(0, 0, 0.8), geom.P(3, 0, 0.8), 40)
	flight, _ := drone.Bebop2().FlyCtx(context.Background(), plan, drone.DefaultOptiTrack(), d.src.Split("flight"))
	cap, err := d.CollectSARCtx(context.Background(), flight, tg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cap.Disentangled) < 30 {
		t.Fatalf("only %d captures", len(cap.Disentangled))
	}
	cfg := loc.DefaultConfig(d.Model.Freq)
	cfg.Region = &loc.Region{X0: -2, Y0: 0.3, X1: 5, Y1: 5}
	res, err := loc.LocalizeCtx(context.Background(), cap.Disentangled, flight.MeasuredTrajectory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Location.Dist2D(tagPos); e > 0.4 {
		t.Fatalf("end-to-end localization error = %v m (got %v)", e, res.Location)
	}
}

func TestCollectSARRequiresRelay(t *testing.T) {
	d := openDeployment(false, geom.P2(0, 0), geom.Point{}, 9)
	tg := d.AddTag(epc.NewEPC96(10, 0, 0, 0, 0, 0), geom.P2(2, 0))
	plan := geom.Line(geom.P2(0, 0), geom.P2(1, 0), 5)
	flight, _ := drone.Bebop2().FlyCtx(context.Background(), plan, drone.DefaultOptiTrack(), d.src)
	if _, err := d.CollectSARCtx(context.Background(), flight, tg, nil); err == nil {
		t.Fatal("SAR without a relay accepted")
	}
}

func TestReadRate(t *testing.T) {
	d := openDeployment(true, geom.P2(0, 0), geom.P2(20, 0), 10)
	d.ShadowSigmaDB = 4
	tg := d.AddTag(epc.NewEPC96(11, 0, 0, 0, 0, 0), geom.P2(22, 0))
	rate := d.ReadRate(tg, 50)
	if rate < 0.8 {
		t.Fatalf("read rate at 20 m through relay = %v", rate)
	}
	if d.ReadRate(tg, 0) != 0 {
		t.Fatal("zero attempts should be rate 0")
	}
	// A hopeless geometry reads at 0.
	far := d.AddTag(epc.NewEPC96(12, 0, 0, 0, 0, 0), geom.P2(200, 100))
	if r := d.ReadRate(far, 20); r != 0 {
		t.Fatalf("far tag read rate = %v", r)
	}
}

func TestNoMirrorRandomizesPhase(t *testing.T) {
	cfg := Config{
		Scene:     world.OpenSpace(),
		ReaderPos: geom.P2(-10, 0),
		UseRelay:  true,
		RelayPos:  geom.P2(0, 0),
	}
	cfg.RelayCfg = relay.DefaultConfig()
	cfg.RelayCfg.Mirrored = false
	d := New(cfg, 11)
	tg := d.AddTag(epc.NewEPC96(13, 0, 0, 0, 0, 0), geom.P2(2, 0))
	// Same geometry, repeated measurements: phase must wander wildly.
	var phases []float64
	for i := 0; i < 10; i++ {
		h, _ := d.channelTo(tg, math.Inf(1))
		phases = append(phases, cmplx.Phase(h))
	}
	spread := 0.0
	for i := range phases {
		for j := i + 1; j < len(phases); j++ {
			diff := math.Abs(phases[i] - phases[j])
			if diff > math.Pi {
				diff = 2*math.Pi - diff
			}
			if diff > spread {
				spread = diff
			}
		}
	}
	if spread < 0.5 {
		t.Fatalf("no-mirror phase spread only %v rad", spread)
	}
}

func TestShadowingChangesBudget(t *testing.T) {
	d := openDeployment(false, geom.P2(0, 0), geom.Point{}, 12)
	d.ShadowSigmaDB = 6
	tg := d.AddTag(epc.NewEPC96(14, 0, 0, 0, 0, 0), geom.P2(8, 0))
	a := d.LinkBudget(tg).TagRxDBm
	b := d.LinkBudget(tg).TagRxDBm
	if a == b {
		t.Fatal("shadowing draws identical")
	}
}

func TestBudgetThroughWall(t *testing.T) {
	scene := &world.Scene{}
	scene.AddWall(geom.P2(5, -2), geom.P2(5, 2), world.Concrete)
	d := New(Config{Scene: scene, ReaderPos: geom.P2(0, 0), UseRelay: false}, 13)
	tg := d.AddTag(epc.NewEPC96(15, 0, 0, 0, 0, 0), geom.P2(6, 0))
	clear := New(Config{Scene: world.OpenSpace(), ReaderPos: geom.P2(0, 0)}, 13)
	tgClear := clear.AddTag(epc.NewEPC96(15, 0, 0, 0, 0, 0), geom.P2(6, 0))
	bWall := d.LinkBudget(tg)
	bClear := clear.LinkBudget(tgClear)
	if bWall.TagRxDBm >= bClear.TagRxDBm-10 {
		t.Fatalf("wall loss missing: %v vs %v", bWall.TagRxDBm, bClear.TagRxDBm)
	}
}

func TestCombineSNR(t *testing.T) {
	// Equal limits lose 3 dB; a dominant limit wins.
	if got := combineSNRdB(20, 20); math.Abs(got-17) > 0.05 {
		t.Fatalf("combine(20,20) = %v", got)
	}
	if got := combineSNRdB(40, 10); math.Abs(got-10) > 0.1 {
		t.Fatalf("combine(40,10) = %v", got)
	}
	if !math.IsInf(combineSNRdB(math.Inf(-1), 20), -1) {
		t.Fatal("−inf should dominate")
	}
}

func TestRSSICalibConsistency(t *testing.T) {
	d := openDeployment(true, geom.P2(-10, 0), geom.P2(0, 0), 14)
	d.ShadowSigmaDB = 0
	d.PhaseJitterDeg = 0
	tg := d.AddTag(epc.NewEPC96(16, 0, 0, 0, 0, 0), geom.P2(2.5, 0))
	hT, _ := d.channelTo(tg, math.Inf(1))
	hE, _ := d.embeddedChannel(math.Inf(1))
	gotMag := cmplx.Abs(hT / hE)
	wantMag := d.DisentangledMag(tg, 2.5)
	if math.Abs(20*math.Log10(gotMag/wantMag)) > 0.5 {
		t.Fatalf("calibration model off: %v vs %v", gotMag, wantMag)
	}
}

func TestDeploymentString(t *testing.T) {
	d := openDeployment(true, geom.P2(0, 0), geom.P2(5, 0), 15)
	if s := d.String(); s == "" {
		t.Fatal("empty String")
	}
	d2 := openDeployment(false, geom.P2(0, 0), geom.Point{}, 16)
	if s := d2.String(); s == "" {
		t.Fatal("empty String")
	}
}

func TestMediumInterfaceCompliance(t *testing.T) {
	var _ reader.Medium = (*Deployment)(nil)
}

func TestPowerCycleOnFlight(t *testing.T) {
	// As the relay flies away, a tag that was inventoried in S0 browns
	// out and forgets its S0 flag; moving the relay back, the tag
	// participates again without any explicit reset.
	d := openDeployment(true, geom.P2(-10, 0), geom.P2(0, 0), 70)
	tg := d.AddTag(epc.NewEPC96(0x70, 0, 0, 0, 0, 0), geom.P2(1.5, 0))
	// Q=2: the embedded tag (whose enormous SNR captures any collision)
	// and our tag usually land in different slots.
	qalg := epc.NewQAlgorithm(2, 0.3)
	for round := 0; round < 10 && !tg.Inventoried(epc.S0); round++ {
		d.Reader.RunInventoryRound(d, epc.S0, epc.TargetA, qalg)
	}
	if !tg.Inventoried(epc.S0) {
		t.Fatal("tag not inventoried while powered")
	}
	// Fly far away: the next command sees the tag unpowered → brown-out.
	d.MoveRelay(geom.P2(500, 0))
	d.Send(epc.QueryRep{Session: epc.S0})
	if tg.Inventoried(epc.S0) {
		t.Fatal("S0 flag survived brown-out")
	}
	// Back in range: the tag answers a fresh A-target round.
	d.MoveRelay(geom.P2(0, 0))
	stats := d.Reader.RunInventoryRound(d, epc.S0, epc.TargetA, qalg)
	found := false
	for _, rd := range stats.Reads {
		if rd.EPC.Equal(tg.EPC) {
			found = true
		}
	}
	if !found {
		t.Fatal("tag did not rejoin after re-powering")
	}
}

func TestOrientationBlindSpotEliminatedByDrone(t *testing.T) {
	// A tag in range of the direct reader but end-on to it (orientation
	// null) is a blind spot; the drone relay hovering broadside reads it.
	d := openDeployment(false, geom.P2(0, 0), geom.Point{}, 80)
	tg := d.AddTag(epc.NewEPC96(0x80, 0, 0, 0, 0, 0), geom.P2(5, 0))
	tg.Orientation = geom.V(1, 0, 0) // null toward the reader
	if b := d.LinkBudget(tg); b.Powered {
		t.Fatalf("end-on tag powered by the direct reader: %.1f dBm", b.TagRxDBm)
	}
	// Same tag, relay hovering broadside (above in Y).
	d2 := openDeployment(true, geom.P2(0, 0), geom.P2(5, 2), 80)
	tg2 := d2.AddTag(epc.NewEPC96(0x80, 0, 0, 0, 0, 0), geom.P2(5, 0))
	tg2.Orientation = geom.V(1, 0, 0)
	b := d2.LinkBudget(tg2)
	if !b.Powered {
		t.Fatalf("broadside relay failed to power the tag: %.1f dBm", b.TagRxDBm)
	}
	if !d2.ReadAttempt(tg2) {
		t.Fatal("broadside read attempt failed")
	}
}

func TestRelayNoiseFigureDegradesSNR(t *testing.T) {
	// The relay's receive chain is the first SNR limit a backscattered
	// reply meets; a noisier front end must show up in the end-to-end
	// budget.
	mk := func(nf float64) float64 {
		d := openDeployment(true, geom.P2(0, 0), geom.P2(30, 0), 7)
		d.Relay.Cfg.NoiseFigureDB = nf
		tg := d.AddTag(epc.NewEPC96(9, 0, 0, 0, 0, 0), geom.P2(32, 0))
		b := d.LinkBudget(tg)
		if !b.Powered || !b.ViaRelay {
			t.Fatalf("relay link at NF %g broken: %+v", nf, b)
		}
		return b.SNRdB
	}
	quiet, noisy := mk(3), mk(20)
	if noisy >= quiet {
		t.Fatalf("NF 20 dB gives SNR %.1f ≥ NF 3 dB's %.1f", noisy, quiet)
	}
	if diff := quiet - noisy; diff < 5 {
		t.Fatalf("17 dB NF increase only moved SNR by %.1f dB", diff)
	}
}

// TestNewInstallsCalibration: a deployment built with a known calibration
// carries exactly that isolation report and gain plan, and its relay's
// VGAs hold the plan's settings — not what a fresh measurement of the
// same build would have programmed.
func TestNewInstallsCalibration(t *testing.T) {
	measured := openDeployment(true, geom.P2(0, 0), geom.P2(5, 0), 4)
	cal := Calibration{
		Iso: relay.IsolationReport{InterDownlinkDB: 101, InterUplinkDB: 88, IntraDownlinkDB: 71, IntraUplinkDB: 59},
		Gains: relay.GainPlan{DownVGADB: 7, UpVGADB: 11,
			DownlinkGainDB: 39, UplinkGainDB: 11, Stable: true},
	}
	if measured.Iso == cal.Iso || measured.Relay.DownVGA.GainDB() == cal.Gains.DownVGADB ||
		measured.Relay.UpVGA.GainDB() == cal.Gains.UpVGADB {
		t.Fatal("test calibration coincides with the measured one")
	}
	d := New(Config{
		Scene:       world.OpenSpace(),
		ReaderPos:   geom.P2(0, 0),
		UseRelay:    true,
		RelayPos:    geom.P2(5, 0),
		Calibration: &cal,
	}, 4)
	if d.Iso != cal.Iso {
		t.Fatalf("Iso = %+v, want %+v", d.Iso, cal.Iso)
	}
	if d.Gains != cal.Gains {
		t.Fatalf("Gains = %+v, want %+v", d.Gains, cal.Gains)
	}
	if got := d.Relay.DownVGA.GainDB(); got != cal.Gains.DownVGADB {
		t.Fatalf("downlink VGA = %v dB, want %v", got, cal.Gains.DownVGADB)
	}
	if got := d.Relay.UpVGA.GainDB(); got != cal.Gains.UpVGADB {
		t.Fatalf("uplink VGA = %v dB, want %v", got, cal.Gains.UpVGADB)
	}
}
