// Package perf is the fast-path DSP benchmark harness: it measures the
// block-FFT convolver against the direct form, the Goertzel sweep against
// the naive DFT bin, the striped SAR grid search against the serial scan,
// and the pooled relay forwarding path's allocation count — and, before
// timing anything, asserts the fast paths are *equivalent* to the
// reference paths (≤1e-9 for convolution, bit-identical for the grid
// search). cmd/rfly-bench emits the measurements as BENCH_dsp.json; CI
// runs the short mode as a smoke gate.
package perf

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"testing"

	"rfly/internal/drone"
	"rfly/internal/epc"
	"rfly/internal/geom"
	"rfly/internal/loc"
	"rfly/internal/relay"
	"rfly/internal/rng"
	"rfly/internal/signal"
	"rfly/internal/sim"
	"rfly/internal/world"
)

// Result is one benchmark row of the BENCH_dsp.json report.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// SpeedupVsDirect compares against the row's reference path
	// (direct convolution, naive DFT bin, or the serial grid scan);
	// 0 means the row has no reference pairing.
	SpeedupVsDirect float64 `json:"speedup_vs_direct,omitempty"`
	Note            string  `json:"note,omitempty"`
}

// Report is the full harness output.
type Report struct {
	GOMAXPROCS int      `json:"gomaxprocs"`
	Short      bool     `json:"short"`
	Results    []Result `json:"results"`
	Notes      []string `json:"notes,omitempty"`
}

func randomIQ(n int, seed uint64) []complex128 {
	src := rng.New(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(src.Norm(), src.Norm())
	}
	return x
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

// CheckConvolutionEquivalence asserts the auto-selected Apply (which
// takes the overlap-save path at these sizes) matches ApplyDirect to
// ≤1e-9 max abs error on randomized IQ buffers.
func CheckConvolutionEquivalence() error {
	seed := uint64(41)
	for _, taps := range []int{63, 95} {
		f := signal.LowPass(250e3, signal.DefaultSampleRate, taps)
		for _, n := range []int{4096, 16384, 20000} {
			x := randomIQ(n, seed)
			seed++
			if e := maxAbsErr(f.Apply(x), f.ApplyDirect(x)); e > 1e-9 {
				return fmt.Errorf("perf: taps=%d n=%d: FFT vs direct max error %g > 1e-9", taps, n, e)
			}
		}
	}
	return nil
}

// testbed collects the Figure-12-style SAR aperture the grid-search
// rows run over.
func testbed() ([]loc.Measurement, geom.Trajectory, error) {
	d := sim.New(sim.Config{Scene: world.OpenSpace(), ReaderPos: geom.P(-12, 1, 1.2),
		UseRelay: true, RelayPos: geom.P(0, 0, 0.8)}, 99)
	tg := d.AddTag(epc.NewEPC96(7, 7, 7, 7, 7, 7), geom.P(1.5, 2.0, 0))
	plan := geom.Line(geom.P(0, 0, 0.8), geom.P(3, 0, 0.8), 40)
	// FlyCtx fails only when its ctx ends, which a background ctx never does.
	flight, _ := drone.Bebop2().FlyCtx(context.Background(), plan, drone.DefaultOptiTrack(), rng.New(99).Split("f"))
	cap, err := d.CollectSARCtx(context.Background(), flight, tg, nil, nil)
	if err != nil {
		return nil, geom.Trajectory{}, err
	}
	return cap.Disentangled, flight.MeasuredTrajectory(), nil
}

func gridConfig() loc.Config {
	cfg := loc.DefaultConfig(915e6)
	cfg.Region = &loc.Region{X0: -2, Y0: 0.2, X1: 5, Y1: 5}
	return cfg
}

// CheckParallelEquivalence asserts the striped grid search is
// bit-identical to the serial scan on the testbed aperture: location,
// peak, and every heatmap cell.
func CheckParallelEquivalence() error {
	meas, traj, err := testbed()
	if err != nil {
		return err
	}
	cfg := gridConfig()
	cfg.Workers = 1
	serial, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		return err
	}
	cfg.Workers = 0
	par, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		return err
	}
	if par.Location != serial.Location || par.Peak != serial.Peak {
		return fmt.Errorf("perf: parallel location %+v peak %v != serial %+v peak %v",
			par.Location, par.Peak, serial.Location, serial.Peak)
	}
	for i := range par.Heatmap.Data {
		if par.Heatmap.Data[i] != serial.Heatmap.Data[i] {
			return fmt.Errorf("perf: heatmap cell %d differs: parallel %v vs serial %v",
				i, par.Heatmap.Data[i], serial.Heatmap.Data[i])
		}
	}
	return nil
}

// CheckStreamEquivalence asserts the streaming accumulator's finalize is
// bit-identical to the serial batch solve (the same fold, one batch, one
// worker) on the testbed aperture — location, peak, and every heatmap
// cell — for every worker count and regardless of how the capture stream
// is chopped into batches. The batch boundaries exercise the invariant
// the checkpoint codec leans on: per-cell accumulation order is arrival
// order, so chopping never moves a bit.
func CheckStreamEquivalence() error {
	meas, traj, err := testbed()
	if err != nil {
		return err
	}
	cfg := gridConfig()
	cfg.Workers = 1
	batch, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		return err
	}
	chops := [][]int{{len(meas)}, {1, 7, len(meas) - 8}}
	for _, workers := range []int{1, 2, 4, 8, 0} {
		scfg := gridConfig()
		scfg.Workers = workers
		for ci, chop := range chops {
			s, err := loc.NewStreamSolver(scfg)
			if err != nil {
				return err
			}
			off := 0
			for _, n := range chop {
				s.AddBatch(context.Background(), meas[off:off+n])
				off += n
			}
			snap, err := s.Snapshot(context.Background())
			if err != nil {
				return fmt.Errorf("perf: stream finalize (workers=%d chop=%d): %w", workers, ci, err)
			}
			if snap.Location != batch.Location || snap.Peak != batch.Peak {
				return fmt.Errorf("perf: stream (workers=%d chop=%d) location %+v peak %v != batch %+v peak %v",
					workers, ci, snap.Location, snap.Peak, batch.Location, batch.Peak)
			}
			for i := range snap.Heatmap.Data {
				if snap.Heatmap.Data[i] != batch.Heatmap.Data[i] {
					return fmt.Errorf("perf: stream (workers=%d chop=%d) heatmap cell %d differs: %v vs %v",
						workers, ci, i, snap.Heatmap.Data[i], batch.Heatmap.Data[i])
				}
			}
		}
	}
	return nil
}

// row converts a testing.BenchmarkResult into a report row.
func row(name string, r testing.BenchmarkResult) Result {
	return Result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// pair appends reference/fast rows with the speedup recorded on the fast
// row.
func pair(report *Report, refName string, ref testing.BenchmarkResult,
	fastName string, fast testing.BenchmarkResult, note string) {
	rr := row(refName, ref)
	fr := row(fastName, fast)
	if fr.NsPerOp > 0 {
		fr.SpeedupVsDirect = rr.NsPerOp / fr.NsPerOp
	}
	fr.Note = note
	report.Results = append(report.Results, rr, fr)
}

// bench runs fn with MemStats recording enabled.
func bench(fn func(b *testing.B)) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
}

// Run executes the harness. short trims buffer sizes and iteration
// budgets to CI-smoke scale.
func Run(short bool) (*Report, error) {
	if err := CheckConvolutionEquivalence(); err != nil {
		return nil, err
	}
	if err := CheckParallelEquivalence(); err != nil {
		return nil, err
	}
	if err := CheckStreamEquivalence(); err != nil {
		return nil, err
	}
	if err := CheckReplayEquivalence(); err != nil {
		return nil, err
	}
	report := &Report{GOMAXPROCS: runtime.GOMAXPROCS(0), Short: short}
	if report.GOMAXPROCS == 1 {
		report.Notes = append(report.Notes,
			"single-core host: the striped grid search degenerates to the serial scan, so grid_parallel speedup ≈ 1 here; the convolution and Goertzel rows carry the measured single-core speedups")
	}

	// Convolution: direct vs overlap-save, at the relay's LPF/BPF tap
	// counts over a representative capture block.
	n := 16384
	if short {
		n = 4096
	}
	for _, taps := range []int{63, 95} {
		f := signal.LowPass(250e3, signal.DefaultSampleRate, taps)
		x := randomIQ(n, uint64(taps))
		dst := make([]complex128, n)
		direct := bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.ApplyDirect(x)
			}
		})
		fft := bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.ApplyInto(dst, x)
			}
		})
		pair(report,
			fmt.Sprintf("conv_direct_taps%d_n%d", taps, n), direct,
			fmt.Sprintf("conv_fft_taps%d_n%d", taps, n), fft,
			"overlap-save block convolution vs direct form")
	}

	// Goertzel single-bin power vs the naive DFT bin it replaced.
	gx := randomIQ(n, 5)
	naive := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			naiveBinPower(gx, 300e3, signal.DefaultSampleRate)
		}
	})
	goertzel := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			signal.GoertzelPower(gx, 300e3, signal.DefaultSampleRate)
		}
	})
	pair(report, fmt.Sprintf("goertzel_naive_n%d", n), naive,
		fmt.Sprintf("goertzel_recurrence_n%d", n), goertzel,
		"second-order real recurrence vs complex rotation per sample")

	// Figure-6 heatmap grid search: serial vs striped worker pool.
	meas, traj, err := testbed()
	if err != nil {
		return nil, err
	}
	cfg := gridConfig()
	if short {
		cfg.CoarseRes = 0.2
	}
	cfg.Workers = 1
	serial := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	pcfg := cfg
	pcfg.Workers = 0
	parallel := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := loc.LocalizeCtx(context.Background(), meas, traj, pcfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	pair(report, "grid_serial_fig6", serial, "grid_parallel_fig6", parallel,
		fmt.Sprintf("striped rows across %d workers, bit-identical merge", report.GOMAXPROCS))
	serialNs := float64(serial.T.Nanoseconds()) / float64(serial.N)

	// Worker sweep over the striped scan: the scaling curve at fixed
	// worker counts, each bit-identical to the serial row above.
	for _, workers := range []int{2, 4, 8} {
		wcfg := cfg
		wcfg.Workers = workers
		wres := bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := loc.LocalizeCtx(context.Background(), meas, traj, wcfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		wr := row(fmt.Sprintf("grid_workers%d_fig6", workers), wres)
		if wr.NsPerOp > 0 {
			wr.SpeedupVsDirect = serialNs / wr.NsPerOp
		}
		wr.Note = "vs grid_serial_fig6; workers beyond GOMAXPROCS only queue"
		report.Results = append(report.Results, wr)
	}

	// Streaming accumulator: the amortized cost of folding one capture
	// into the per-cell partial sums (grid allocation included), and the
	// end-of-mission finalize over the pre-accumulated grid — the row the
	// live-estimate path pays per sortie instead of a full batch solve.
	scfg := cfg
	scfg.Workers = 0
	add := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := loc.NewStreamSolver(scfg)
			if err != nil {
				b.Fatal(err)
			}
			s.AddBatch(context.Background(), meas)
		}
	})
	ar := row("stream_add_per_capture", add)
	ar.NsPerOp /= float64(len(meas))
	ar.AllocsPerOp /= int64(len(meas))
	ar.BytesPerOp /= int64(len(meas))
	ar.Note = fmt.Sprintf("full %d-capture aperture folded into a fresh grid, amortized per capture", len(meas))
	report.Results = append(report.Results, ar)

	solver, err := loc.NewStreamSolver(scfg)
	if err != nil {
		return nil, err
	}
	solver.AddBatch(context.Background(), meas)
	finalize := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Snapshot(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	fr := row("stream_finalize_fig6", finalize)
	if fr.NsPerOp > 0 {
		fr.SpeedupVsDirect = serialNs / fr.NsPerOp
	}
	fr.Note = "argmax + refinement + error bars over pre-accumulated sums vs the full batch solve; target >=5x"
	report.Results = append(report.Results, fr)
	if fr.SpeedupVsDirect > 0 && fr.SpeedupVsDirect < 5 {
		report.Notes = append(report.Notes, fmt.Sprintf(
			"stream_finalize_fig6 speedup %.1fx is below the 5x target on this host", fr.SpeedupVsDirect))
	}

	// Relay forwarding: the sortie tick path whose allocs/op the buffer
	// pool exists to cut.
	r := relay.New(relay.DefaultConfig(), rng.New(1))
	r.Lock(0)
	tone := signal.Tone(4096, 50e3, r.Cfg.Fs, 0, 1e-3)
	fwd := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := r.ForwardDownlink(tone, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	fwdRow := row("relay_forward_downlink_n4096", fwd)
	fwdRow.Note = "pooled scratch buffers; allocs/op is the output buffer plus chain state only"
	report.Results = append(report.Results, fwdRow)

	// Capture plane: replay-from-log vs full sim re-run, and the
	// per-record append cost of the columnar log writer.
	if err := captureRows(report, short); err != nil {
		return nil, err
	}

	return report, nil
}

// naiveBinPower is the pre-fix GoertzelPower: one complex rotation per
// sample. Kept as the benchmark reference.
func naiveBinPower(x []complex128, freq, fs float64) float64 {
	if len(x) == 0 {
		return 0
	}
	w := -2 * math.Pi * freq / fs
	var acc complex128
	for i, v := range x {
		s, c := math.Sincos(w * float64(i))
		acc += v * complex(c, s)
	}
	n := float64(len(x))
	return (real(acc)*real(acc) + imag(acc)*imag(acc)) / (n * n)
}
