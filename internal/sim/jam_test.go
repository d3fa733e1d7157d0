package sim

import (
	"context"
	"math"
	"testing"

	"rfly/internal/epc"
	"rfly/internal/fault"
	"rfly/internal/geom"
	"rfly/internal/world"
)

func jamTestDeployment(t *testing.T, seed uint64) (*Deployment, *Budget) {
	t.Helper()
	d := New(Config{
		Scene:     world.Corridor(40, 3),
		ReaderPos: geom.P(0.5, 1.5, 1.2),
		UseRelay:  true,
		RelayPos:  geom.P(15, 1.5, 1.5),
	}, seed)
	tg := d.AddTag(epc.NewEPC96(1, 2, 3, 4, 5, 6), geom.P(17.5, 1.5, 1.3))
	b := d.LinkBudget(tg)
	if !b.Powered || math.IsInf(b.SNRdB, -1) {
		t.Fatalf("baseline tag not served: %+v", b)
	}
	return d, &b
}

func TestJammerDegradesSINR(t *testing.T) {
	d, base := jamTestDeployment(t, 7)
	jam := world.Jammer{
		Pos: geom.P(8, 1.5, 1.2), TxPowerDBm: -10, AntennaGainDB: 2,
		BandArea: 0, DutyCycle: 1, PeriodTicks: 1,
	}
	if err := d.AddJammerCtx(context.Background(), jam); err != nil {
		t.Fatal(err)
	}
	jb := d.LinkBudget(d.Tags[0])
	if !(jb.SNRdB < base.SNRdB) {
		t.Fatalf("in-band jammer did not degrade SINR: %.2f → %.2f dB", base.SNRdB, jb.SNRdB)
	}

	// An out-of-band spot jammer (area 1: 902–908.5 MHz, carrier at 915)
	// gets filter rejection on every path — it must hurt strictly less.
	d2, base2 := jamTestDeployment(t, 7)
	spot := jam
	spot.BandArea = 1
	if err := d2.AddJammerCtx(context.Background(), spot); err != nil {
		t.Fatal(err)
	}
	sb := d2.LinkBudget(d2.Tags[0])
	if !(sb.SNRdB > jb.SNRdB) {
		t.Fatalf("out-of-band jammer should hurt less: barrage %.2f dB, spot %.2f dB", jb.SNRdB, sb.SNRdB)
	}
	if !(sb.SNRdB <= base2.SNRdB) {
		t.Fatalf("spot jammer improved SINR: %.2f → %.2f dB", base2.SNRdB, sb.SNRdB)
	}
}

func TestJammerDutyCycleGating(t *testing.T) {
	d, base := jamTestDeployment(t, 11)
	jam := world.Jammer{
		Pos: geom.P(8, 1.5, 1.2), TxPowerDBm: -10, AntennaGainDB: 2,
		BandArea: 0, DutyCycle: 0.5, PeriodTicks: 4,
	}
	if err := d.AddJammerCtx(context.Background(), jam); err != nil {
		t.Fatal(err)
	}
	d.SetJamTick(0) // first half of the period: radiating
	on := d.LinkBudget(d.Tags[0])
	d.SetJamTick(2) // second half: quiet
	off := d.LinkBudget(d.Tags[0])
	if !(on.SNRdB < base.SNRdB) {
		t.Fatalf("active jammer did not degrade SINR: %.2f → %.2f dB", base.SNRdB, on.SNRdB)
	}
	if off.SNRdB != base.SNRdB {
		t.Fatalf("quiet jammer perturbed SINR: %.2f → %.2f dB", base.SNRdB, off.SNRdB)
	}
}

func TestJammerStealsRelayLock(t *testing.T) {
	d, _ := jamTestDeployment(t, 13)
	if !d.RelayLockOK() {
		t.Fatal("relay must start locked to our reader")
	}
	// A strong barrage jammer right next to the relay out-powers the
	// reader at the relay's front end and captures the sweep.
	jam := world.Jammer{
		Pos: geom.P(14.5, 1.5, 1.5), TxPowerDBm: 30, AntennaGainDB: 2,
		BandArea: 0, DutyCycle: 1, PeriodTicks: 1,
	}
	if err := d.AddJammerCtx(context.Background(), jam); err != nil {
		t.Fatal(err)
	}
	if d.RelayLockOK() {
		t.Fatal("30 dBm jammer 0.5 m from the relay must steal the lock")
	}
	b := d.LinkBudget(d.Tags[0])
	if !math.IsInf(b.SNRdB, -1) {
		t.Fatalf("stolen lock must dark the link, got SNR %.2f dB", b.SNRdB)
	}
	// Once the jammer's duty cycle gates it off, the lock comes back.
	d.Jammers[0].DutyCycle = 0.5
	d.Jammers[0].PeriodTicks = 4
	d.SetJamTick(3)
	if !d.RelayLockOK() {
		t.Fatal("quiet jammer must not hold the lock")
	}
}

func TestJammingFaultApplyRevert(t *testing.T) {
	d, base := jamTestDeployment(t, 17)
	ev := fault.Event{Class: fault.Jamming, Start: 0, Duration: 3, Severity: 0.6}
	if err := d.ApplyFault(ev); err != nil {
		t.Fatal(err)
	}
	if len(d.Jammers) != 1 {
		t.Fatalf("apply left %d jammers, want 1", len(d.Jammers))
	}
	mid := d.LinkBudget(d.Tags[0])
	if !(mid.SNRdB < base.SNRdB) {
		t.Fatalf("jamming fault did not degrade SINR: %.2f → %.2f dB", base.SNRdB, mid.SNRdB)
	}
	if err := d.RevertFault(ev); err != nil {
		t.Fatal(err)
	}
	if len(d.Jammers) != 0 {
		t.Fatalf("revert left %d jammers", len(d.Jammers))
	}
	after := d.LinkBudget(d.Tags[0])
	if after.SNRdB != base.SNRdB {
		t.Fatalf("revert did not restore SINR: %.2f → %.2f dB", base.SNRdB, after.SNRdB)
	}
	// Param selects a band area; out-of-range areas degrade to barrage.
	ev2 := fault.Event{Class: fault.Jamming, Start: 0, Duration: 3, Severity: 0.5, Param: 2}
	if err := d.ApplyFault(ev2); err != nil {
		t.Fatal(err)
	}
	if d.Jammers[0].BandArea != 2 {
		t.Fatalf("Param=2 placed band area %d", d.Jammers[0].BandArea)
	}
	if err := d.RevertFault(ev2); err != nil {
		t.Fatal(err)
	}
}

func TestComposeReaderCells(t *testing.T) {
	d, base := jamTestDeployment(t, 19)
	n := d.ComposeReaderCells(6, 8, 20)
	if n != 6 || len(d.Interferers) != 6 {
		t.Fatalf("composed %d cells, %d interferers", n, len(d.Interferers))
	}
	for i, cell := range d.Interferers {
		if cell.FreqOffset == 0 {
			t.Fatalf("cell %d is co-channel; cells must sit on adjacent channels", i)
		}
	}
	b := d.LinkBudget(d.Tags[0])
	if !(b.SNRdB < base.SNRdB) {
		t.Fatalf("dense cells did not degrade SINR: %.2f → %.2f dB", base.SNRdB, b.SNRdB)
	}
	// Determinism: the same composition twice is identical.
	d2, _ := jamTestDeployment(t, 19)
	d2.ComposeReaderCells(6, 8, 20)
	for i := range d.Interferers {
		if d.Interferers[i] != d2.Interferers[i] {
			t.Fatalf("cell %d differs across identical compositions", i)
		}
	}
}

func TestWarehouseGeneratorDensities(t *testing.T) {
	// The thousand-tag fixture.
	def := DefaultWarehouseOpts(5)
	if got := len(def.TagPositions()); got < 1000 {
		t.Fatalf("default warehouse has %d tags, want ≥ 1000", got)
	}
	// Exercised across three densities: counts scale, estimates match,
	// placement is deterministic and inside the walls.
	for _, density := range []float64{1.0, 3.0, 7.5} {
		o := DefaultWarehouseOpts(5)
		o.TagsPerMeter = density
		pts := o.TagPositions()
		if len(pts) != o.EstimateTagCount() {
			t.Fatalf("density %g: %d tags, estimate %d", density, len(pts), o.EstimateTagCount())
		}
		pts2 := o.TagPositions()
		for i := range pts {
			if pts[i] != pts2[i] {
				t.Fatalf("density %g: tag %d moved between identical builds", density, i)
			}
			p := pts[i]
			if p.X < 0 || p.X > o.WidthM || p.Y < 0 || p.Y > o.DepthM || p.Z <= 0 {
				t.Fatalf("density %g: tag %d outside the building: %v", density, i, p)
			}
		}
	}
	// Densities strictly order the counts.
	lo, mid, hi := 0, 0, 0
	for i, density := range []float64{1.0, 3.0, 7.5} {
		o := DefaultWarehouseOpts(5)
		o.TagsPerMeter = density
		switch i {
		case 0:
			lo = len(o.TagPositions())
		case 1:
			mid = len(o.TagPositions())
		case 2:
			hi = len(o.TagPositions())
		}
	}
	if !(lo < mid && mid < hi) {
		t.Fatalf("densities do not order counts: %d, %d, %d", lo, mid, hi)
	}
}

func TestWarehouseDeploymentBuilds(t *testing.T) {
	o := DefaultWarehouseOpts(5)
	o.TagsPerMeter = 0.5 // keep the build cheap; placement is covered above
	d, tags := NewWarehouse(o)
	if len(tags) != len(o.TagPositions()) || len(d.Tags) != len(tags) {
		t.Fatalf("deployment carries %d/%d tags, want %d", len(d.Tags), len(tags), len(o.TagPositions()))
	}
	if d.Relay == nil {
		t.Fatal("default warehouse must fly a relay")
	}
	// EPCs must be unique — duplicate EPCs would alias inventory counts.
	seen := map[string]bool{}
	for _, tg := range tags {
		s := tg.EPC.String()
		if seen[s] {
			t.Fatalf("duplicate EPC %s", s)
		}
		seen[s] = true
	}
}
