package relay

import (
	"math"
	"runtime"
	"testing"

	"rfly/internal/rng"
	"rfly/internal/signal"
)

// referenceIsolation measures one link the way the relay did before the
// measurement streamed: the whole probe tone through the exported
// full-buffer forward, then signal.Power past the first quarter, with
// the trial drawn in the same order (offset jitter, power, phase, and
// the measurement noise only when the link leaks).
func referenceIsolation(t *testing.T, r *Relay, link Link, trial *rng.Source) float64 {
	t.Helper()
	fA := r.ReaderFreq()
	fB := fA + r.Cfg.ShiftHz
	jitter := trial.Uniform(-5e3, 5e3)
	freq, fwd, gainDB := fA+500e3+jitter, r.ForwardDownlink, r.DownlinkGainDB()
	switch link {
	case InterUplink:
		freq, fwd, gainDB = fB+50e3+jitter, r.ForwardUplink, r.UplinkGainDB()
	case IntraDownlink:
		freq = fB + 50e3 + jitter
	case IntraUplink:
		freq, fwd, gainDB = fA+500e3+jitter, r.ForwardUplink, r.UplinkGainDB()
	}
	power := signal.WattsFromDBm(trial.Uniform(-20, 0))
	x := signal.Tone(probeSamples, freq, r.Cfg.Fs, trial.Phase(), math.Sqrt(power))
	signal.Scale(x, complex(signal.AmpFromDB(-r.AntennaIsolationDB()), 0))
	out, err := fwd(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := signal.Power(out[len(out)/4:])
	if p <= 0 {
		return math.Inf(1)
	}
	iso := signal.DB(power/p) + gainDB
	iso += trial.Gaussian(0, r.Cfg.ProbeJitterDB)
	return iso
}

// streamTestRelay builds the i-th relay of the bit-identity sweep: seeded
// builds, mirrored and not, with LO drift, programmed gains, a dropped
// antenna isolation, +Inf antenna isolation (no leak at all, so the
// serial order skips the noise draws), and victim filters on the direct
// path as well as larger FFT blocks.
func streamTestRelay(i int) *Relay {
	cfg := DefaultConfig()
	cfg.Mirrored = i%2 == 0
	switch i % 7 {
	case 4:
		cfg.LPFTaps, cfg.BPFTaps = 31, 47 // both victims on the direct path
	case 5:
		cfg.LPFTaps = 127
	}
	r := New(cfg, rng.New(uint64(1000+i)))
	r.Lock(float64(i%5-2) * 500e3)
	if i%3 == 1 {
		r.ApplyCFO(float64(1+i%4) * 3e3)
	}
	if i%4 == 2 {
		r.ProgramGains(IsolationReport{InterDownlinkDB: 110, InterUplinkDB: 92, IntraDownlinkDB: 77, IntraUplinkDB: 64})
	}
	if i%5 == 3 {
		r.SetAntennaIsolationDB(r.AntennaIsolationDB() - 15)
	}
	if i%16 == 0 {
		r.SetAntennaIsolationDB(math.Inf(1))
	}
	return r
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestMeasureStreamMatchesForward holds the streamed, lane-parallel
// isolation measurement to the full-buffer forward it replaced, bit for
// bit: every single MeasureIsolation link and the whole MeasureAll
// report, and the trial source's position afterwards, at GOMAXPROCS 1, 2
// and 4.
func TestMeasureStreamMatchesForward(t *testing.T) {
	const relays = 40
	type want struct {
		iso  [4]float64
		next uint64 // the trial's next draw after the four links
	}
	wants := make([]want, relays)
	for i := range wants {
		r := streamTestRelay(i)
		trial := rng.New(uint64(7 + i))
		for k, link := range links {
			wants[i].iso[k] = referenceIsolation(t, r, link, trial)
		}
		wants[i].next = trial.Uint64()
	}
	if !math.IsInf(wants[0].iso[0], 1) {
		t.Fatalf("relay 0 (+Inf antenna isolation) measured %v, want +Inf", wants[0].iso[0])
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for i, w := range wants {
			r := streamTestRelay(i)
			trial := rng.New(uint64(7 + i))
			for k, link := range links {
				got, err := r.MeasureIsolation(link, trial)
				if err != nil {
					t.Fatal(err)
				}
				if !sameFloat(got, w.iso[k]) {
					t.Fatalf("GOMAXPROCS=%d relay %d %v: MeasureIsolation %v, full-buffer forward %v", procs, i, link, got, w.iso[k])
				}
			}
			if next := trial.Uint64(); next != w.next {
				t.Fatalf("GOMAXPROCS=%d relay %d: MeasureIsolation left the trial at a different draw", procs, i)
			}
			trial = rng.New(uint64(7 + i))
			rep, err := r.MeasureAll(trial)
			if err != nil {
				t.Fatal(err)
			}
			if got := [4]float64{rep.InterDownlinkDB, rep.InterUplinkDB, rep.IntraDownlinkDB, rep.IntraUplinkDB}; !sameFloat(got[0], w.iso[0]) ||
				!sameFloat(got[1], w.iso[1]) || !sameFloat(got[2], w.iso[2]) || !sameFloat(got[3], w.iso[3]) {
				t.Fatalf("GOMAXPROCS=%d relay %d: MeasureAll %v, full-buffer forward %v", procs, i, got, w.iso)
			}
			if next := trial.Uint64(); next != w.next {
				t.Fatalf("GOMAXPROCS=%d relay %d: MeasureAll left the trial at a different draw", procs, i)
			}
		}
	}
}

// BenchmarkMeasureAll times one four-link isolation measurement on a
// locked relay (the first sortie of every mission runs one).
func BenchmarkMeasureAll(b *testing.B) {
	r := New(DefaultConfig(), rng.New(1))
	r.Lock(0)
	trial := rng.New(2)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := r.MeasureAll(trial); err != nil {
			b.Fatal(err)
		}
	}
}
