package perf

import (
	"context"
	"math"
	"testing"

	"rfly/internal/loc"
	"rfly/internal/signal"
)

func TestConvolutionEquivalence(t *testing.T) {
	if err := CheckConvolutionEquivalence(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelEquivalence(t *testing.T) {
	if err := CheckParallelEquivalence(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamEquivalence(t *testing.T) {
	if err := CheckStreamEquivalence(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayEquivalence(t *testing.T) {
	if err := CheckReplayEquivalence(); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveBinMatchesGoertzel(t *testing.T) {
	x := randomIQ(2048, 17)
	for _, freq := range []float64{0, 120e3, 300e3, -450e3} {
		a := naiveBinPower(x, freq, signal.DefaultSampleRate)
		b := signal.GoertzelPower(x, freq, signal.DefaultSampleRate)
		if math.Abs(a-b) > 1e-9*(1+a) {
			t.Fatalf("freq %v: naive %g vs goertzel %g", freq, a, b)
		}
	}
}

func TestRunShortReport(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run is itself the short-mode payload")
	}
	rep, err := Run(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOMAXPROCS < 1 || len(rep.Results) < 7 {
		t.Fatalf("report %d procs, %d rows", rep.GOMAXPROCS, len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 {
			t.Fatalf("row %s has ns/op %v", r.Name, r.NsPerOp)
		}
	}
}

// --- Sub-benchmarks (go test -bench over this package) ---------------------

func BenchmarkConvolution(b *testing.B) {
	for _, taps := range []int{63, 95} {
		f := signal.LowPass(250e3, signal.DefaultSampleRate, taps)
		x := randomIQ(16384, uint64(taps))
		dst := make([]complex128, len(x))
		b.Run(name("direct_taps", taps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.ApplyDirect(x)
			}
		})
		b.Run(name("fft_taps", taps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.ApplyInto(dst, x)
			}
		})
	}
}

func BenchmarkGoertzel(b *testing.B) {
	x := randomIQ(16384, 5)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			naiveBinPower(x, 300e3, signal.DefaultSampleRate)
		}
	})
	b.Run("recurrence", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			signal.GoertzelPower(x, 300e3, signal.DefaultSampleRate)
		}
	})
}

func BenchmarkGridSearch(b *testing.B) {
	meas, traj, err := testbed()
	if err != nil {
		b.Fatal(err)
	}
	cfg := gridConfig()
	for _, workers := range []int{1, 0} {
		cfg.Workers = workers
		cfg := cfg
		b.Run(name("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStream(b *testing.B) {
	meas, _, err := testbed()
	if err != nil {
		b.Fatal(err)
	}
	cfg := gridConfig()
	b.Run("add_aperture", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := loc.NewStreamSolver(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s.AddBatch(context.Background(), meas)
		}
	})
	s, err := loc.NewStreamSolver(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.AddBatch(context.Background(), meas)
	b.Run("finalize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Snapshot(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func name(prefix string, v int) string {
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
