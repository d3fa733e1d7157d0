package relay

import (
	"math"
	"math/cmplx"
	"runtime"
	"testing"

	"rfly/internal/rng"
	"rfly/internal/signal"
)

func newTestRelay(seed uint64) *Relay {
	r := New(DefaultConfig(), rng.New(seed))
	r.Lock(0)
	return r
}

func TestDefaultConfigSanity(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ShiftHz <= cfg.BPFCenter+cfg.BPFHalfBW {
		t.Fatal("shift must clear the uplink passband")
	}
	if cfg.Fs/2 <= cfg.ShiftHz+cfg.BPFCenter {
		t.Fatal("sample rate cannot represent the shifted uplink")
	}
}

func TestLockTunesSynthesizers(t *testing.T) {
	r := New(DefaultConfig(), rng.New(1))
	if r.Locked() {
		t.Fatal("fresh relay claims locked")
	}
	r.Lock(500e3)
	if !r.Locked() || r.ReaderFreq() != 500e3 {
		t.Fatalf("lock state: %v %v", r.Locked(), r.ReaderFreq())
	}
	oscA, err := r.SynthA.Oscillator()
	if err != nil {
		t.Fatal(err)
	}
	if oscA.Freq != 500e3 {
		t.Fatalf("synthA = %v", oscA.Freq)
	}
	oscB, err := r.SynthB.Oscillator()
	if err != nil {
		t.Fatal(err)
	}
	if oscB.Freq != 500e3+r.Cfg.ShiftHz {
		t.Fatalf("synthB = %v", oscB.Freq)
	}
}

func TestLockToReaderEnergyDetect(t *testing.T) {
	r := New(DefaultConfig(), rng.New(2))
	fs := r.Cfg.Fs
	// Reader carrier at +1 MHz with a weaker interferer at −500 kHz.
	rx := signal.Tone(8000, 1e6, fs, 0.3, 1)
	signal.Add(rx, signal.Tone(8000, -500e3, fs, 0.1, 0.3))
	got, err := r.LockToReader(rx)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1e6 {
		t.Fatalf("locked to %v, want 1 MHz (strongest)", got)
	}
	if _, err := r.LockToReader(nil); err == nil {
		t.Fatal("empty capture locked")
	}
}

func TestISMChannelsWithinNyquist(t *testing.T) {
	r := newTestRelay(3)
	for _, f := range r.ISMChannels() {
		if math.Abs(f)+r.Cfg.ShiftHz+1e6 > r.Cfg.Fs/2 {
			t.Fatalf("channel %v too close to Nyquist", f)
		}
	}
	if len(r.ISMChannels()) < 5 {
		t.Fatal("too few ISM candidates")
	}
}

func TestForwardDownlinkShiftsAndFilters(t *testing.T) {
	r := newTestRelay(4)
	fs := r.Cfg.Fs
	// In-band query component at +50 kHz passes and comes out at
	// shift+50 kHz; an out-of-band component at +500 kHz is rejected.
	n := 16384
	in := signal.Tone(n, 50e3, fs, 0, 1e-3)
	signal.Add(in, signal.Tone(n, 500e3, fs, 0, 1e-3))
	out, err := r.ForwardDownlink(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	skip := n / 4
	pPass := signal.GoertzelPower(out[skip:], r.Cfg.ShiftHz+50e3, fs)
	pRej := signal.GoertzelPower(out[skip:], r.Cfg.ShiftHz+500e3, fs)
	if pPass <= 0 {
		t.Fatal("in-band component lost")
	}
	rejDB := signal.DB(pRej / pPass)
	if rejDB > -55 {
		t.Fatalf("downlink rejection only %.1f dB", rejDB)
	}
	// The forwarded carrier gains the programmed path gain.
	gotGain := signal.DB(pPass / 1e-6)
	if math.Abs(gotGain-r.DownlinkGainDB()) > 1.5 {
		t.Fatalf("downlink gain through waveform = %.1f dB, programmed %.1f dB",
			gotGain, r.DownlinkGainDB())
	}
}

// TestForwardDownlinkAllocs pins the pooled forwarding path: a sortie
// tick allocates only the output buffer it returns.
func TestForwardDownlinkAllocs(t *testing.T) {
	r := newTestRelay(1)
	tone := signal.Tone(4096, 50e3, r.Cfg.Fs, 0, 1e-3)
	got := testing.AllocsPerRun(20, func() {
		if _, err := r.ForwardDownlink(tone, 0); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Fatalf("ForwardDownlink n=4096: %v allocs/op, want 1", got)
	}
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS=1 pin:
// the heap objects one call of f allocates at the current GOMAXPROCS,
// averaged over runs calls. It warms up with runs calls first, so the
// scheduler's per-P free lists of exited goroutines have filled and
// spawning one no longer allocates its descriptor.
func mallocsPerRun(runs int, f func()) uint64 {
	for range runs {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestMeasureAllAllocs pins the isolation measurement's allocations
// exactly: scratch comes from the IQ pool and the fan-out's lane state
// is recycled, so measuring all four links on a locked relay allocates
// one closure per lane it spawns — min(4, GOMAXPROCS)−1, since the
// caller's goroutine runs one lane.
func TestMeasureAllAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := newTestRelay(1)
	trial := rng.New(2)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := mallocsPerRun(50, func() {
			if _, err := r.MeasureAll(trial); err != nil {
				t.Fatal(err)
			}
		})
		if want := uint64(min(4, procs) - 1); got != want {
			t.Fatalf("GOMAXPROCS=%d: MeasureAll %d allocs/op, want %d", procs, got, want)
		}
	}
}

// TestMeasureAllTakesNoProbeBuffer checks that the measurement streams
// on FFT-sized scratch: with the IQ pool emptied and restocked with small
// buffers only, a request for a probe-length buffer could not be served
// from it and would allocate 256 KB, so MeasureAll on a locked relay
// allocates far less than one probe buffer.
func TestMeasureAllTakesNoProbeBuffer(t *testing.T) {
	r := newTestRelay(3)
	trial := rng.New(4)
	drain := func() {
		for range 4 * 32 {
			signal.GetIQ(1) // empties the pool; its buffers are dropped
		}
	}
	drain()
	// Leave an empty pool, not a full one of small buffers that the next
	// test's larger requests would miss.
	t.Cleanup(drain)
	for range 32 {
		signal.PutIQ(make([]complex128, 2048))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 4 {
		if _, err := r.MeasureAll(trial); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got, probeBytes := after.TotalAlloc-before.TotalAlloc, uint64(probeSamples*16); got >= probeBytes {
		t.Fatalf("4 MeasureAll calls allocated %d bytes, at least one %d-byte probe buffer", got, probeBytes)
	}
}

func TestForwardUplinkPassesBLF(t *testing.T) {
	r := newTestRelay(5)
	fs := r.Cfg.Fs
	n := 16384
	// Tag response sidebands at shift ± 500 kHz (tag frame), query residue
	// at shift + 50 kHz.
	in := signal.Tone(n, r.Cfg.ShiftHz+500e3, fs, 0, 1e-3)
	signal.Add(in, signal.Tone(n, r.Cfg.ShiftHz+50e3, fs, 0, 1e-3))
	out, err := r.ForwardUplink(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	skip := n / 4
	pPass := signal.GoertzelPower(out[skip:], 500e3, fs)
	pRej := signal.GoertzelPower(out[skip:], 50e3, fs)
	if pPass <= 0 {
		t.Fatal("tag response lost")
	}
	if rejDB := signal.DB(pRej / pPass); rejDB > -40 {
		t.Fatalf("uplink query rejection only %.1f dB", rejDB)
	}
}

func TestMirroredPhasePreservation(t *testing.T) {
	// The headline §4.3/§7.1(b) property: through downlink+uplink with
	// shared synthesizers, the recovered phase is trial-invariant; with
	// independent synthesizers it is random.
	phases := func(mirrored bool, seed uint64) []float64 {
		cfg := DefaultConfig()
		cfg.Mirrored = mirrored
		cfg.SynthPPM = 0 // isolate the phase-offset mechanism
		out := make([]float64, 0, 8)
		for trial := 0; trial < 8; trial++ {
			r := New(cfg, rng.New(seed+uint64(trial)*977))
			r.Lock(0)
			fs := cfg.Fs
			n := 16384
			// A "tag response" tone at +500 kHz in the reader frame that the
			// downlink→tag→uplink loop would produce; here we model the tag
			// as a perfect reflector at the relay, so phase changes come
			// only from the relay hardware.
			probe := signal.Tone(n, 50e3, fs, 0.2, 1e-3)
			dl, err := r.ForwardDownlink(probe, 0)
			if err != nil {
				t.Fatal(err)
			}
			ul, err := r.ForwardUplink(dl, 0)
			if err != nil {
				t.Fatal(err)
			}
			skip := n / 2
			// Compare output phase against the input template at 50 kHz.
			ref := signal.Tone(n, 50e3, fs, 0.2, 1e-3)
			c := signal.Correlate(ul[skip:], ref[skip:])
			out = append(out, cmplx.Phase(c))
		}
		return out
	}

	mir := phases(true, 100)
	spread := phaseSpreadDeg(mir)
	if spread > 2 {
		t.Fatalf("mirrored phase spread = %.2f°, want < 2°", spread)
	}
	nomir := phases(false, 200)
	if s := phaseSpreadDeg(nomir); s < 30 {
		t.Fatalf("no-mirror phase spread = %.2f°, want large", s)
	}
}

// phaseSpreadDeg returns the max pairwise angular distance in degrees.
func phaseSpreadDeg(ph []float64) float64 {
	max := 0.0
	for i := range ph {
		for j := i + 1; j < len(ph); j++ {
			d := math.Abs(signal.WrapPhase(ph[i]-ph[j])) * 180 / math.Pi
			if d > max {
				max = d
			}
		}
	}
	return max
}

func TestIsolationMedians(t *testing.T) {
	// The four isolations must land near the paper's medians with the
	// paper's ordering: interDL > interUL > intraDL > intraUL.
	src := rng.New(7)
	var idl, iul, adl, aul []float64
	for i := 0; i < 15; i++ {
		r := New(DefaultConfig(), rng.New(uint64(1000+i)))
		r.Lock(0)
		trial := src.Split("trial")
		rep, err := r.MeasureAll(trial)
		if err != nil {
			t.Fatal(err)
		}
		idl = append(idl, rep.InterDownlinkDB)
		iul = append(iul, rep.InterUplinkDB)
		adl = append(adl, rep.IntraDownlinkDB)
		aul = append(aul, rep.IntraUplinkDB)
	}
	med := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		for i := range s {
			for j := i + 1; j < len(s); j++ {
				if s[j] < s[i] {
					s[i], s[j] = s[j], s[i]
				}
			}
		}
		return s[len(s)/2]
	}
	mIDL, mIUL, mADL, mAUL := med(idl), med(iul), med(adl), med(aul)
	t.Logf("medians: interDL=%.1f interUL=%.1f intraDL=%.1f intraUL=%.1f", mIDL, mIUL, mADL, mAUL)
	if !(mIDL > mIUL && mIUL > mADL && mADL > mAUL) {
		t.Fatalf("isolation ordering broken: %.1f %.1f %.1f %.1f", mIDL, mIUL, mADL, mAUL)
	}
	within := func(got, want, tol float64) bool { return math.Abs(got-want) <= tol }
	if !within(mIDL, 110, 12) || !within(mIUL, 92, 12) || !within(mADL, 77, 8) || !within(mAUL, 64, 8) {
		t.Fatalf("isolation medians off paper targets: %.1f %.1f %.1f %.1f", mIDL, mIUL, mADL, mAUL)
	}
}

func TestAnalogBaselineMuchWorse(t *testing.T) {
	src := rng.New(8)
	a := NewAnalogRelay(rng.New(9))
	r := newTestRelay(10)
	var rflyMin, analogMax float64 = math.Inf(1), math.Inf(-1)
	for i := 0; i < 10; i++ {
		trial := src.Split("t")
		rep, err := r.MeasureAll(trial)
		if err != nil {
			t.Fatal(err)
		}
		rflyMin = math.Min(rflyMin, rep.Min())
		for _, l := range []Link{InterDownlink, InterUplink, IntraDownlink, IntraUplink} {
			iso, err := a.MeasureIsolation(l, trial)
			if err != nil {
				t.Fatal(err)
			}
			analogMax = math.Max(analogMax, iso)
		}
	}
	// Paper: ≥50 dB improvement... on matching links; conservatively the
	// worst RFly link must beat the best analog measurement comfortably.
	if rflyMin-analogMax < 5 {
		t.Fatalf("RFly min %.1f vs analog max %.1f", rflyMin, analogMax)
	}
}

func TestStabilityRangeEquation(t *testing.T) {
	// Paper's numbers: 30 dB → 0.75 m; 80 dB → 238 m; 70 dB → ~84 m at
	// λ = c/915MHz ≈ 0.328 m (the paper quotes λ ≈ 0.333 m at 900 MHz).
	if got := MaxStableRangeM(30, 900e6); math.Abs(got-0.84) > 0.1 {
		t.Fatalf("30 dB range = %v", got)
	}
	if got := MaxStableRangeM(80, 900e6); math.Abs(got-265) > 30 {
		t.Fatalf("80 dB range = %v", got)
	}
	if got := MaxStableRangeM(70, 900e6); math.Abs(got-83.8) > 5 {
		t.Fatalf("70 dB range = %v", got)
	}
	// Inverse consistency.
	for _, iso := range []float64{40.0, 60, 75} {
		r := MaxStableRangeM(iso, 915e6)
		if back := RequiredIsolationDB(r, 915e6); math.Abs(back-iso) > 1e-9 {
			t.Fatalf("Eq.4 inverse broken at %v dB", iso)
		}
	}
}

func TestProgramGains(t *testing.T) {
	r := newTestRelay(11)
	iso := IsolationReport{
		InterDownlinkDB: 110, InterUplinkDB: 92,
		IntraDownlinkDB: 77, IntraUplinkDB: 64,
	}
	plan := r.ProgramGains(iso)
	if !plan.Stable {
		t.Fatalf("plan unstable: %+v", plan)
	}
	m := r.Cfg.StabilityMarginDB
	if plan.DownlinkGainDB > iso.IntraDownlinkDB-m+1e-9 {
		t.Fatalf("downlink gain %v violates intra isolation", plan.DownlinkGainDB)
	}
	if plan.UplinkGainDB > iso.IntraUplinkDB-m+1e-9 {
		t.Fatalf("uplink gain %v violates intra isolation", plan.UplinkGainDB)
	}
	if plan.DownlinkGainDB+plan.UplinkGainDB > iso.InterDownlinkDB+iso.InterUplinkDB-m+1e-9 {
		t.Fatal("loop gain violates inter isolation")
	}
	// Downlink is maximized: it should hit either the VGA ceiling or the
	// intra constraint.
	fixed := r.Cfg.DriveGainDB + r.Cfg.PAGainDB
	wantDown := math.Min(iso.IntraDownlinkDB-m, r.Cfg.DownVGAMaxDB+fixed)
	if math.Abs(plan.DownlinkGainDB-wantDown) > 1e-9 {
		t.Fatalf("downlink gain %v, want max %v", plan.DownlinkGainDB, wantDown)
	}
}

func TestProgramGainsWeakIsolation(t *testing.T) {
	r := newTestRelay(12)
	iso := IsolationReport{InterDownlinkDB: 45, InterUplinkDB: 40, IntraDownlinkDB: 38, IntraUplinkDB: 35}
	plan := r.ProgramGains(iso)
	// With VGAs clamped at 0 dB the fixed 32 dB downlink chain must still
	// respect the 38−10 = 28 dB limit → impossible → unstable.
	if plan.Stable {
		t.Fatalf("weak isolation produced a 'stable' plan: %+v", plan)
	}
}

func TestIsolationReportMin(t *testing.T) {
	rep := IsolationReport{InterDownlinkDB: 110, InterUplinkDB: 92, IntraDownlinkDB: 77, IntraUplinkDB: 64}
	if rep.Min() != 64 {
		t.Fatalf("Min = %v", rep.Min())
	}
}

func TestLinkString(t *testing.T) {
	names := map[Link]string{
		InterDownlink: "inter-downlink", InterUplink: "inter-uplink",
		IntraDownlink: "intra-downlink", IntraUplink: "intra-uplink",
	}
	for l, want := range names {
		if l.String() != want {
			t.Fatalf("%v", l)
		}
	}
	if Link(9).String() != "link(9)" {
		t.Fatal("unknown link string")
	}
}

func TestHardwarePhaseConstant(t *testing.T) {
	r := newTestRelay(13)
	p1 := r.HardwarePhase()
	p2 := r.HardwarePhase()
	if p1 != p2 {
		t.Fatal("hardware phase not constant")
	}
	if p1 <= -math.Pi || p1 > math.Pi {
		t.Fatalf("hardware phase %v not wrapped", p1)
	}
}

func TestPowerBudget(t *testing.T) {
	p := DefaultPowerBudget()
	if math.Abs(p.BatteryAmps()-0.483) > 0.01 {
		t.Fatalf("battery amps = %v", p.BatteryAmps())
	}
	if f := p.BatteryFraction(); f >= 0.03 {
		t.Fatalf("battery fraction = %v, paper says <3%%", f)
	}
}

func TestMeasureIsolationUnknownLinkErrors(t *testing.T) {
	r := newTestRelay(14)
	if _, err := r.MeasureIsolation(Link(42), rng.New(1)); err == nil {
		t.Fatal("unknown link accepted")
	}
}

func TestMeasureIsolationAutoLocks(t *testing.T) {
	r := New(DefaultConfig(), rng.New(15))
	iso, err := r.MeasureIsolation(IntraUplink, rng.New(16))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(iso) || iso < 20 {
		t.Fatalf("isolation = %v", iso)
	}
	if !r.Locked() {
		t.Fatal("measurement did not lock the relay")
	}
}

func TestAutoGainBacksOffNearReader(t *testing.T) {
	r := newTestRelay(30)
	iso := IsolationReport{InterDownlinkDB: 110, InterUplinkDB: 92, IntraDownlinkDB: 77, IntraUplinkDB: 64}
	// Far input (weak): full gain.
	far := r.AutoGain(iso, -45)
	if far.DownlinkGainDB < 60 {
		t.Fatalf("far gain = %v", far.DownlinkGainDB)
	}
	// Near input (hot): gain backs off so output ≈ P1dB − 1.
	near := r.AutoGain(iso, -15)
	if near.DownlinkGainDB >= far.DownlinkGainDB {
		t.Fatal("AGC did not back off")
	}
	out := -15 + near.DownlinkGainDB
	if out > r.Cfg.PAP1dBm {
		t.Fatalf("AGC output %v dBm above P1dB", out)
	}
	if out < r.Cfg.PAP1dBm-3 {
		t.Fatalf("AGC output %v dBm too conservative", out)
	}
	// Stability caps still respected.
	if !near.Stable {
		t.Fatal("AGC produced an unstable plan")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mut := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	bad := []struct {
		name string
		cfg  Config
	}{
		{"zero fs", mut(func(c *Config) { c.Fs = 0 })},
		{"no shift", mut(func(c *Config) { c.ShiftHz = 0 })},
		{"aliasing shift", mut(func(c *Config) { c.ShiftHz = 3.5e6 })},
		{"lpf at nyquist", mut(func(c *Config) { c.LPFCutoff = 4e6 })},
		{"lpf too narrow", mut(func(c *Config) { c.LPFCutoff = 10e3 })},
		{"bpf under dc", mut(func(c *Config) { c.BPFCenter = 100e3; c.BPFHalfBW = 200e3 })},
		{"bpf past nyquist", mut(func(c *Config) { c.BPFCenter = 3.9e6 })},
		{"even lpf taps", mut(func(c *Config) { c.LPFTaps = 64 })},
		{"tiny bpf taps", mut(func(c *Config) { c.BPFTaps = 1 })},
		{"negative margin", mut(func(c *Config) { c.StabilityMarginDB = -1 })},
	}
	for _, tc := range bad {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
