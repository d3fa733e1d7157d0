package signal

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"rfly/internal/rng"
)

func TestDBRoundTrip(t *testing.T) {
	for _, db := range []float64{-90, -30, 0, 3, 20, 110} {
		if got := DB(FromDB(db)); math.Abs(got-db) > 1e-9 {
			t.Fatalf("DB(FromDB(%v)) = %v", db, got)
		}
	}
	if g := AmpFromDB(20); math.Abs(g-10) > 1e-12 {
		t.Fatalf("AmpFromDB(20) = %v", g)
	}
}

func TestDBmConversions(t *testing.T) {
	if got := DBm(1); math.Abs(got-30) > 1e-12 {
		t.Fatalf("DBm(1W) = %v", got)
	}
	if got := WattsFromDBm(0); math.Abs(got-1e-3) > 1e-15 {
		t.Fatalf("WattsFromDBm(0) = %v", got)
	}
	if got := WattsFromDBm(-15); math.Abs(got-31.6e-6) > 1e-6 {
		t.Fatalf("WattsFromDBm(-15) = %v", got)
	}
}

func TestTonePower(t *testing.T) {
	x := Tone(4096, 100e3, DefaultSampleRate, 0.3, 1)
	if p := Power(x); math.Abs(p-1) > 1e-9 {
		t.Fatalf("unit tone power = %v", p)
	}
	x = Tone(4096, 100e3, DefaultSampleRate, 0, 2)
	if p := Power(x); math.Abs(p-4) > 1e-9 {
		t.Fatalf("amp-2 tone power = %v", p)
	}
}

func TestGoertzelPower(t *testing.T) {
	const fs = DefaultSampleRate
	// 1000 cycles of 250 kHz in 16000 samples: integer bin.
	x := Tone(16000, 250e3, fs, 0.7, 1)
	if p := GoertzelPower(x, 250e3, fs); math.Abs(p-1) > 1e-6 {
		t.Fatalf("on-bin power = %v, want 1", p)
	}
	// Power at a far-away frequency must be tiny.
	if p := GoertzelPower(x, 1e6, fs); p > 1e-4 {
		t.Fatalf("off-bin power = %v", p)
	}
}

func TestGoertzelTwoTones(t *testing.T) {
	const fs = DefaultSampleRate
	x := Tone(16000, 100e3, fs, 0, 1)
	Add(x, Tone(16000, 500e3, fs, 1, 0.1))
	p1 := GoertzelPower(x, 100e3, fs)
	p2 := GoertzelPower(x, 500e3, fs)
	if math.Abs(p1-1) > 1e-3 {
		t.Fatalf("tone1 power = %v", p1)
	}
	if math.Abs(p2-0.01) > 1e-3 {
		t.Fatalf("tone2 power = %v", p2)
	}
}

func TestEnergyDetect(t *testing.T) {
	const fs = DefaultSampleRate
	x := Tone(8000, 300e3, fs, 0, 1)
	cands := []float64{-500e3, -100e3, 0, 100e3, 300e3, 500e3}
	best, p, ok := EnergyDetect(x, cands, fs)
	if !ok {
		t.Fatal("EnergyDetect reported no candidates")
	}
	if best != 300e3 {
		t.Fatalf("EnergyDetect picked %v", best)
	}
	if p < 0.9 {
		t.Fatalf("detected power = %v", p)
	}
}

func TestOscillatorMixRoundTrip(t *testing.T) {
	const fs = DefaultSampleRate
	osc := Oscillator{Freq: 750e3, Phase: 1.1}
	x := Tone(4096, 200e3, fs, 0.2, 1)
	down := osc.MixDown(x, fs, 0)
	up := osc.MixUp(down, fs, 0)
	// MixUp(MixDown(x)) must be exactly x (same oscillator → mirrored).
	for i := range x {
		if cmplx.Abs(x[i]-up[i]) > 1e-9 {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, x[i], up[i])
		}
	}
}

func TestOscillatorShiftsFrequency(t *testing.T) {
	const fs = DefaultSampleRate
	osc := Oscillator{Freq: 400e3}
	x := Tone(16000, 100e3, fs, 0, 1)
	up := osc.MixUp(x, fs, 0)
	if p := GoertzelPower(up, 500e3, fs); math.Abs(p-1) > 1e-3 {
		t.Fatalf("upconverted power at 500 kHz = %v", p)
	}
	if p := GoertzelPower(up, 100e3, fs); p > 1e-3 {
		t.Fatalf("residual power at 100 kHz = %v", p)
	}
}

func TestOscillatorPPM(t *testing.T) {
	const fs = DefaultSampleRate
	// 10 ppm at 900 MHz = 9 kHz offset.
	osc := Oscillator{Freq: 0, PPM: 10, Ref: 900e6}
	x := Tone(40000, 0, fs, 0, 1)
	up := osc.MixUp(x, fs, 0)
	if p := GoertzelPower(up, 9e3, fs); math.Abs(p-1) > 1e-2 {
		t.Fatalf("ppm-shifted power = %v", p)
	}
}

func TestOscillatorPhaseContinuity(t *testing.T) {
	const fs = DefaultSampleRate
	osc := Oscillator{Freq: 123e3, Phase: 0.5}
	x := Tone(2000, 50e3, fs, 0, 1)
	whole := osc.MixUp(x, fs, 0)
	part1 := osc.MixUp(x[:1000], fs, 0)
	part2 := osc.MixUp(x[1000:], fs, 1000)
	for i := 0; i < 1000; i++ {
		if cmplx.Abs(whole[i]-part1[i]) > 1e-12 {
			t.Fatal("segment 1 mismatch")
		}
		if cmplx.Abs(whole[1000+i]-part2[i]) > 1e-12 {
			t.Fatal("segment 2 not phase continuous")
		}
	}
}

func TestLowPassResponse(t *testing.T) {
	const fs = DefaultSampleRate
	lpf := LowPass(100e3, fs, 129)
	if g := lpf.ResponseAt(0, fs); math.Abs(g) > 0.1 {
		t.Fatalf("DC gain = %v dB, want 0", g)
	}
	pass := lpf.ResponseAt(50e3, fs)
	if pass < -3 {
		t.Fatalf("50 kHz response = %v dB, want > -3", pass)
	}
	stop := lpf.ResponseAt(500e3, fs)
	if stop > -40 {
		t.Fatalf("500 kHz rejection = %v dB, want < -40", stop)
	}
	// Deeper stopband further out.
	if r := lpf.ResponseAt(1e6, fs); r > stop {
		t.Fatalf("response not monotone-ish: 1 MHz %v dB vs 500 kHz %v dB", r, stop)
	}
}

func TestBandPassResponse(t *testing.T) {
	const fs = DefaultSampleRate
	bpf := BandPass(500e3, 200e3, fs, 129)
	if g := bpf.ResponseAt(500e3, fs); math.Abs(g) > 0.1 {
		t.Fatalf("center gain = %v dB", g)
	}
	if g := bpf.ResponseAt(50e3, fs); g > -30 {
		t.Fatalf("50 kHz rejection = %v dB, want < -30", g)
	}
	if g := bpf.ResponseAt(1.5e6, fs); g > -30 {
		t.Fatalf("1.5 MHz rejection = %v dB, want < -30", g)
	}
}

func TestFIRApplyTone(t *testing.T) {
	const fs = DefaultSampleRate
	lpf := LowPass(100e3, fs, 129)
	// In-band tone passes, out-of-band tone is crushed.
	in := Tone(8000, 50e3, fs, 0, 1)
	out := lpf.Apply(in)
	// skip transient
	if p := Power(out[2000:]); p < 0.8 {
		t.Fatalf("in-band tone attenuated: %v", p)
	}
	in = Tone(8000, 600e3, fs, 0, 1)
	out = lpf.Apply(in)
	if p := Power(out[2000:]); p > 1e-4 {
		t.Fatalf("out-of-band tone passed: %v", p)
	}
}

func TestFIRResponseMatchesApply(t *testing.T) {
	// Property: filtering a tone attenuates its Goertzel power by the
	// filter's frequency response, within tolerance.
	const fs = DefaultSampleRate
	lpf := LowPass(150e3, fs, 101)
	for _, f := range []float64{25e3, 100e3, 300e3, 700e3} {
		in := Tone(16000, f, fs, 0, 1)
		out := lpf.Apply(in)
		meas := DB(GoertzelPower(out[4000:], f, fs))
		want := lpf.ResponseAt(f, fs)
		tol := 1.0
		if want < -60 {
			tol = 15 // numerical floor dominates deep in the stopband
		}
		if math.Abs(meas-want) > tol {
			t.Fatalf("f=%v: measured %v dB, response %v dB", f, meas, want)
		}
	}
}

func TestAWGNPower(t *testing.T) {
	src := rng.New(5)
	x := make([]complex128, 100000)
	AWGN(x, 2.0, src.Norm)
	if p := Power(x); math.Abs(p-2) > 0.1 {
		t.Fatalf("noise power = %v, want 2", p)
	}
	// Zero noise is a no-op.
	y := Tone(100, 0, 1e6, 0, 1)
	AWGN(y, 0, src.Norm)
	if p := Power(y); math.Abs(p-1) > 1e-12 {
		t.Fatal("zero-power AWGN changed the signal")
	}
}

func TestThermalNoise(t *testing.T) {
	// kTB at 1 MHz, NF 0: −114 dBm (classic rule of thumb).
	n := ThermalNoiseWatts(1e6, 0)
	if got := DBm(n); math.Abs(got-(-114)) > 0.5 {
		t.Fatalf("kTB(1 MHz) = %v dBm", got)
	}
	// NF adds straight dB.
	n2 := ThermalNoiseWatts(1e6, 6)
	if got := DB(n2 / n); math.Abs(got-6) > 1e-9 {
		t.Fatalf("NF contribution = %v dB", got)
	}
}

func TestSNRdB(t *testing.T) {
	if got := SNRdB(1e-9, 1e-12); math.Abs(got-30) > 1e-9 {
		t.Fatalf("SNR = %v", got)
	}
	if !math.IsInf(SNRdB(1, 0), 1) {
		t.Fatal("zero noise should be +inf")
	}
	if !math.IsInf(SNRdB(0, 1), -1) {
		t.Fatal("zero signal should be -inf")
	}
}

func TestDelay(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	d := Delay(x, 2)
	if d[0] != 0 || d[1] != 0 || d[2] != 1 || d[3] != 2 {
		t.Fatalf("Delay = %v", d)
	}
	if got := Delay(x, 0); &got[0] == &x[0] {
		t.Fatal("Delay(0) must copy")
	}
}

func TestCorrelate(t *testing.T) {
	x := Tone(1000, 100e3, 4e6, 0.4, 1)
	y := append([]complex128(nil), x...)
	Scale(y, cmplx.Rect(3, 1.2)) // scaled+rotated copy
	c := Correlate(x, y)
	if math.Abs(cmplx.Abs(c)-1) > 1e-9 {
		t.Fatalf("|corr| = %v, want 1", cmplx.Abs(c))
	}
	// Orthogonal-ish tones decorrelate.
	z := Tone(1000, 900e3, 4e6, 0, 1)
	if c := cmplx.Abs(Correlate(x, z)); c > 0.05 {
		t.Fatalf("cross-corr = %v", c)
	}
	if Correlate(nil, nil) != 0 {
		t.Fatal("empty Correlate should be 0")
	}
}

func TestWrapPhase(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {math.Pi, math.Pi}, {-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi}, {-2.5 * math.Pi, -0.5 * math.Pi},
	}
	for _, c := range cases {
		if got := WrapPhase(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("WrapPhase(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWrapPhaseProperty(t *testing.T) {
	f := func(ph float64) bool {
		if math.IsNaN(ph) || math.Abs(ph) > 1e6 {
			return true
		}
		w := WrapPhase(ph)
		if w <= -math.Pi || w > math.Pi {
			return false
		}
		// Same angle modulo 2π.
		return math.Abs(math.Mod(ph-w, 2*math.Pi)) < 1e-6 ||
			math.Abs(math.Abs(math.Mod(ph-w, 2*math.Pi))-2*math.Pi) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseDiffDeg(t *testing.T) {
	a := cmplx.Rect(1, 0.1)
	b := cmplx.Rect(5, 0.1+math.Pi/6)
	if d := PhaseDiffDeg(a, b); math.Abs(d-30) > 1e-9 {
		t.Fatalf("PhaseDiffDeg = %v, want 30", d)
	}
}

func TestScaleAdd(t *testing.T) {
	x := []complex128{1, 2}
	Scale(x, 2i)
	if x[0] != 2i || x[1] != 4i {
		t.Fatalf("Scale = %v", x)
	}
	dst := []complex128{1, 1, 1}
	Add(dst, []complex128{1, 2})
	if dst[0] != 2 || dst[1] != 3 || dst[2] != 1 {
		t.Fatalf("Add = %v", dst)
	}
}

func TestFormatDBm(t *testing.T) {
	if got := FormatDBm(0); got != "-inf dBm" {
		t.Fatalf("FormatDBm(0) = %q", got)
	}
	if got := FormatDBm(1e-3); got != "0.0 dBm" {
		t.Fatalf("FormatDBm(1mW) = %q", got)
	}
}

// Windowed-sinc designs must be linear-phase: taps symmetric about the
// center, for every window and both filter families.
func TestFIRLinearPhaseSymmetry(t *testing.T) {
	prop := func(taps8, win8, cut8 uint8) bool {
		taps := 3 + 2*int(taps8%80) // odd, 3-161
		cut := 50e3 + float64(cut8%30)*100e3
		win := Hamming
		if win8%2 == 1 {
			win = Blackman
		}
		var f FIR
		if win8%4 < 2 {
			f = LowPassWin(cut, 8e6, taps, win)
		} else {
			f = BandPassWin(cut+300e3, cut/2+50e3, 8e6, taps, win)
		}
		if len(f.Taps) != taps {
			return false
		}
		for i := 0; i < taps/2; i++ {
			if math.Abs(f.Taps[i]-f.Taps[taps-1-i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// A low-pass's measured response must be ordered: ~unity in the deep
// passband, lower at the transition edge, and far down in the stop band.
func TestLowPassResponseOrdering(t *testing.T) {
	gainDB := func(f FIR, freq float64) float64 {
		sp := FilterResponse(f, freq, freq+1e3, 8e6, 2)
		return sp.PowerDB[0]
	}
	for _, w := range []Window{Hamming, Blackman} {
		f := LowPassWin(150e3, 8e6, 63, w)
		pass := gainDB(f, 20e3)
		edge := gainDB(f, 300e3)
		stop := gainDB(f, 2e6)
		if !(pass > edge && edge > stop) {
			t.Fatalf("window %v: pass %.1f, edge %.1f, stop %.1f dB not ordered", w, pass, edge, stop)
		}
		if pass < -1 || pass > 1 {
			t.Fatalf("window %v: passband gain %.2f dB should be ~0", w, pass)
		}
		if stop > -40 {
			t.Fatalf("window %v: stopband only %.1f dB down", w, stop)
		}
	}
}

// TestDirectFIRMatchesComplexProduct holds the real-tap direct form to the
// complex-product form it replaced, bit for bit, on random input seeded
// with ±0 taps and ±0 sample parts — the signed zeros the dropped cross
// terms could only ever have contributed.
func TestDirectFIRMatchesComplexProduct(t *testing.T) {
	src := rng.New(17)
	signedZero := func(v float64) float64 {
		switch src.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return v
	}
	for _, taps := range []int{1, 2, 31, 63} {
		f := FIR{Taps: make([]float64, taps)}
		for k := range f.Taps {
			f.Taps[k] = signedZero(src.Gaussian(0, 1))
		}
		x := make([]complex128, 2048)
		for i := range x {
			x[i] = complex(signedZero(src.Gaussian(0, 1)), signedZero(src.Gaussian(0, 1)))
		}
		want := make([]complex128, len(x))
		for n := range x {
			var acc complex128
			for k, tp := range f.Taps {
				if n-k < 0 {
					break
				}
				acc += complex(tp, 0) * x[n-k]
			}
			want[n] = acc
		}
		got := f.ApplyDirect(x)
		for n := range got {
			if math.Float64bits(real(got[n])) != math.Float64bits(real(want[n])) ||
				math.Float64bits(imag(got[n])) != math.Float64bits(imag(want[n])) {
				t.Fatalf("taps=%d n=%d: direct %v != complex-product %v", taps, n, got[n], want[n])
			}
		}
	}
}

// sameBits reports whether two buffers are equal bit for bit, signed
// zeros and NaN payloads included.
func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestDirectSplitMatchesSingleLoop holds the direct form's head plus
// branch-free steady state to the single loop it replaced (every output
// walks the taps in ascending order and stops at x[0]), bit for bit,
// over every tap count 1–47 and every length 0–300, and holds
// ApplyDirectFrom on an inner range to the same outputs.
func TestDirectSplitMatchesSingleLoop(t *testing.T) {
	src := rng.New(23)
	x := make([]complex128, 300)
	for i := range x {
		x[i] = complex(src.Gaussian(0, 1), src.Gaussian(0, 1))
	}
	for taps := 1; taps <= 47; taps++ {
		f := FIR{Taps: make([]float64, taps)}
		for k := range f.Taps {
			f.Taps[k] = src.Gaussian(0, 1)
		}
		for n := 0; n <= len(x); n++ {
			in := x[:n]
			want := make([]complex128, n)
			for i := range in {
				var re, im float64
				for k, tp := range f.Taps {
					idx := i - k
					if idx < 0 {
						break
					}
					re += tp * real(in[idx])
					im += tp * imag(in[idx])
				}
				want[i] = complex(re, im)
			}
			if got := f.ApplyDirect(in); !sameBits(got, want) {
				t.Fatalf("taps=%d len=%d: split direct form differs from the single loop", taps, n)
			}
			if from := taps - 1; n > from {
				got := make([]complex128, n-from)
				f.ApplyDirectFrom(got, in, from)
				if !sameBits(got, want[from:]) {
					t.Fatalf("taps=%d len=%d: ApplyDirectFrom(%d) differs from the direct form", taps, n, from)
				}
			}
		}
	}
}
