package signal

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"rfly/internal/rng"
)

// randomIQ fills a deterministic complex buffer with unit-variance noise.
func randomIQ(n int, seed uint64) []complex128 {
	src := rng.New(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(src.Norm(), src.Norm())
	}
	return x
}

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for i, v := range x {
			acc += v * cmplx.Rect(1, -2*math.Pi*float64(k)*float64(i)/float64(n))
		}
		out[k] = acc
	}
	return out
}

func maxAbsErr(a, b []complex128) float64 {
	worst := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > worst {
			worst = e
		}
	}
	return worst
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 256} {
		x := randomIQ(n, uint64(n)+7)
		got, err := FFT(x)
		if err != nil {
			t.Fatalf("FFT(%d): %v", n, err)
		}
		want := naiveDFT(x)
		if e := maxAbsErr(got, want); e > 1e-9*float64(n) {
			t.Fatalf("FFT(%d) max error %g vs naive DFT", n, e)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	x := randomIQ(1024, 3)
	X, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	back, err := IFFT(X)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxAbsErr(back, x); e > 1e-10 {
		t.Fatalf("IFFT(FFT(x)) max error %g", e)
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := FFT(make([]complex128, 100)); err == nil {
		t.Fatal("FFT accepted length 100")
	}
	if _, err := IFFT(make([]complex128, 0)); err == nil {
		t.Fatal("IFFT accepted length 0")
	}
}

// TestOverlapSaveMatchesDirect is the tentpole's correctness gate: the
// overlap-save path must agree with the direct form to ≤1e-9 max abs
// error on randomized IQ buffers, across tap counts and buffer lengths
// (including non-power-of-two lengths that straddle block boundaries).
func TestOverlapSaveMatchesDirect(t *testing.T) {
	seed := uint64(11)
	for _, taps := range []int{48, 63, 95, 127} {
		f := LowPass(250e3, DefaultSampleRate, taps)
		for _, n := range []int{1024, 4096, 5000, 16384} {
			x := randomIQ(n, seed)
			seed++
			want := f.ApplyDirect(x)
			got := make([]complex128, n)
			f.applyFFTInto(got, x)
			if e := maxAbsErr(got, want); e > 1e-9 {
				t.Fatalf("taps=%d n=%d: overlap-save max error %g", taps, n, e)
			}
		}
	}
}

// TestConvolutionEquivalence holds the auto-selected Apply, which takes
// the overlap-save path at the relay's LPF/BPF tap counts over capture
// sized buffers (including one that is not a whole number of blocks), to
// ≤1e-9 max abs error against ApplyDirect.
func TestConvolutionEquivalence(t *testing.T) {
	seed := uint64(41)
	for _, taps := range []int{63, 95} {
		f := LowPass(250e3, DefaultSampleRate, taps)
		for _, n := range []int{4096, 16384, 20000} {
			x := randomIQ(n, seed)
			seed++
			if e := maxAbsErr(f.Apply(x), f.ApplyDirect(x)); e > 1e-9 {
				t.Fatalf("taps=%d n=%d: FFT vs direct max error %g > 1e-9", taps, n, e)
			}
		}
	}
}

func TestApplyRoutesThroughFFTPath(t *testing.T) {
	if !useFFT(63, 4096) || !useFFT(95, 16384) {
		t.Fatal("long-filter long-buffer cases must take the FFT path")
	}
	if useFFT(31, 4096) || useFFT(63, 512) || useFFT(63, 200) {
		t.Fatal("short cases must stay on the direct path")
	}
	// Apply (auto-select) must agree with the direct form either way.
	f := BandPass(1.2e6, 300e3, DefaultSampleRate, 95)
	x := randomIQ(8192, 99)
	if e := maxAbsErr(f.Apply(x), f.ApplyDirect(x)); e > 1e-9 {
		t.Fatalf("Apply vs ApplyDirect max error %g", e)
	}
}

// naiveBinPower is the single-bin DFT sum GoertzelPower replaced: one
// complex rotation per sample. It is the reference for the Goertzel
// cross-check and its benchmark.
func naiveBinPower(x []complex128, freq, fs float64) float64 {
	w := -2 * math.Pi * freq / fs
	var acc complex128
	for i, v := range x {
		s, c := math.Sincos(w * float64(i))
		acc += v * complex(c, s)
	}
	n := float64(len(x))
	return (real(acc)*real(acc) + imag(acc)*imag(acc)) / (n * n)
}

// TestGoertzelMatchesDirectBin cross-checks the second-order Goertzel
// recurrence against the naive single-bin DFT sum it replaced, on and off
// the bin grid.
func TestGoertzelMatchesDirectBin(t *testing.T) {
	const fs = DefaultSampleRate
	x := randomIQ(3000, 21)
	Add(x, Tone(3000, 150e3, fs, 0.4, 2))
	for _, freq := range []float64{0, 100e3, 150e3, 333.3e3, -700e3} {
		want := naiveBinPower(x, freq, fs)
		got := GoertzelPower(x, freq, fs)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("freq %v: goertzel %g vs direct %g", freq, got, want)
		}
	}
}

// TestNaiveBinMatchesGoertzel holds the benchmark's naive reference to
// GoertzelPower on pure noise, so BenchmarkGoertzel times two routines
// that compute the same number.
func TestNaiveBinMatchesGoertzel(t *testing.T) {
	x := randomIQ(2048, 17)
	for _, freq := range []float64{0, 120e3, 300e3, -450e3} {
		a := naiveBinPower(x, freq, DefaultSampleRate)
		b := GoertzelPower(x, freq, DefaultSampleRate)
		if math.Abs(a-b) > 1e-9*(1+a) {
			t.Fatalf("freq %v: naive %g vs goertzel %g", freq, a, b)
		}
	}
}

// TestHotPathAllocs pins the allocation counts the relay chain relies
// on: the overlap-save convolver at the relay's LPF/BPF tap counts and
// the Goertzel sweep allocate nothing per call once warm.
func TestHotPathAllocs(t *testing.T) {
	const n = 16384
	x := randomIQ(n, 5)
	dst := make([]complex128, n)
	for _, taps := range []int{63, 95} {
		f := LowPass(250e3, DefaultSampleRate, taps)
		f.ApplyInto(dst, x) // warm-up: builds and caches the FFT plan and kernel spectrum
		if got := testing.AllocsPerRun(20, func() { f.ApplyInto(dst, x) }); got != 0 {
			t.Errorf("ApplyInto taps=%d n=%d: %v allocs/op, want 0", taps, n, got)
		}
	}
	if got := testing.AllocsPerRun(20, func() { GoertzelPower(x, 300e3, DefaultSampleRate) }); got != 0 {
		t.Errorf("GoertzelPower n=%d: %v allocs/op, want 0", n, got)
	}
}

// TestEnergyDetectEmptyCandidates is the satellite regression: an empty
// candidate set must report ok=false, not a fake "carrier at 0 Hz".
func TestEnergyDetectEmptyCandidates(t *testing.T) {
	x := Tone(4096, 300e3, DefaultSampleRate, 0, 1)
	best, p, ok := EnergyDetect(x, nil, DefaultSampleRate)
	if ok {
		t.Fatalf("empty candidate sweep reported ok (best=%v p=%v)", best, p)
	}
	if best != 0 || p != 0 {
		t.Fatalf("empty sweep must zero its outputs, got best=%v p=%v", best, p)
	}
}

// TestFilterCacheSharesDesign asserts a cache hit returns the same
// immutable taps as a fresh design — same values, same backing array.
func TestFilterCacheSharesDesign(t *testing.T) {
	a := LowPassWin(211e3, DefaultSampleRate, 63, Hamming)
	b := LowPassWin(211e3, DefaultSampleRate, 63, Hamming)
	fresh := designLowPass(211e3, DefaultSampleRate, 63, Hamming)
	if len(a.Taps) != len(fresh.Taps) {
		t.Fatalf("cached taps %d vs fresh %d", len(a.Taps), len(fresh.Taps))
	}
	for i := range a.Taps {
		if a.Taps[i] != fresh.Taps[i] {
			t.Fatalf("tap %d: cached %v vs fresh %v", i, a.Taps[i], fresh.Taps[i])
		}
	}
	if &a.Taps[0] != &b.Taps[0] {
		t.Fatal("cache hit did not share the design's taps slice")
	}
	// Distinct parameters must not collide.
	c := LowPassWin(212e3, DefaultSampleRate, 63, Hamming)
	if &c.Taps[0] == &a.Taps[0] {
		t.Fatal("distinct cutoff shared a cache entry")
	}
}

// TestFilterCacheConcurrent hammers the design cache from many
// goroutines; run under -race this is the satellite's data-race gate.
func TestFilterCacheConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lp := LowPassWin(190e3+float64(i%4)*1e3, DefaultSampleRate, 63, Hamming)
				bp := BandPassWin(1.1e6, 250e3, DefaultSampleRate, 95, Hamming)
				hp := HighPassWin(40e3, DefaultSampleRate, 31, Hamming)
				if len(lp.Taps) != 63 || len(bp.Taps) != 95 || len(hp.Taps) != 31 {
					t.Errorf("goroutine %d: bad tap counts %d/%d/%d",
						g, len(lp.Taps), len(bp.Taps), len(hp.Taps))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestIQPoolReuse(t *testing.T) {
	a := GetIQ(1 << 12)
	if len(a) != 1<<12 {
		t.Fatalf("GetIQ length %d", len(a))
	}
	for i := range a {
		a[i] = complex(1, -1)
	}
	PutIQ(a)
	b := ZeroIQ(GetIQ(64))
	for i, v := range b {
		if v != 0 {
			t.Fatalf("ZeroIQ left b[%d] = %v", i, v)
		}
	}
	PutIQ(b)
}

// BenchmarkConvolution times the direct form against the overlap-save
// path at the relay's LPF/BPF tap counts over a representative capture
// block.
func BenchmarkConvolution(b *testing.B) {
	for _, taps := range []int{63, 95} {
		f := LowPass(250e3, DefaultSampleRate, taps)
		x := randomIQ(16384, uint64(taps))
		dst := make([]complex128, len(x))
		b.Run(fmt.Sprintf("direct_taps=%d", taps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.ApplyDirect(x)
			}
		})
		b.Run(fmt.Sprintf("fft_taps=%d", taps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.ApplyInto(dst, x)
			}
		})
	}
}

// BenchmarkGoertzel times the single-bin power: the naive complex
// rotation per sample against the second-order real recurrence.
func BenchmarkGoertzel(b *testing.B) {
	x := randomIQ(16384, 5)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			naiveBinPower(x, 300e3, DefaultSampleRate)
		}
	})
	b.Run("recurrence", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GoertzelPower(x, 300e3, DefaultSampleRate)
		}
	})
}
