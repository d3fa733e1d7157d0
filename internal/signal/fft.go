package signal

import (
	"fmt"
	"math"
	"sync"
)

// This file is the fast-path convolution engine: an iterative radix-2
// complex FFT plus overlap-save block convolution. FIR.Apply routes long
// filters over long buffers through it; the direct form stays authoritative
// (ApplyDirect) and the two are cross-checked to ≤1e-9 by the package
// tests.

// fftPlan holds the twiddle factors for one power-of-two transform size.
// Plans are immutable after construction and shared across goroutines.
type fftPlan struct {
	n    int
	w    []complex128 // w[k] = e^{-2πik/n}, k < n/2
	wInv []complex128 // conj(w[k]), the inverse transform's twiddles
}

var fftPlans sync.Map // int -> *fftPlan

// planFor returns the (cached) plan for size n, which must be a power of
// two.
func planFor(n int) *fftPlan {
	if v, ok := fftPlans.Load(n); ok {
		return v.(*fftPlan)
	}
	w := make([]complex128, n/2)
	wInv := make([]complex128, n/2)
	for k := range w {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		w[k] = complex(c, s)
		wInv[k] = complex(real(w[k]), -imag(w[k]))
	}
	p := &fftPlan{n: n, w: w, wInv: wInv}
	if v, loaded := fftPlans.LoadOrStore(n, p); loaded {
		return v.(*fftPlan)
	}
	return p
}

// transform runs the in-place radix-2 Cooley-Tukey transform on x, whose
// length must equal the plan size. invert selects the inverse transform
// (including the 1/n scale).
func (p *fftPlan) transform(x []complex128, invert bool) {
	n := p.n
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := p.w
	if invert {
		tw = p.wInv
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			k := 0
			for i := start; i < start+half; i++ {
				t := x[i+half] * tw[k]
				x[i+half] = x[i] - t
				x[i] += t
				k += step
			}
		}
	}
	if invert {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// isPow2 reports whether n is a positive power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// nextPow2 returns the smallest power of two ≥ n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFT returns the discrete Fourier transform of x. The length must be a
// power of two (the simulation's capture blocks are).
func FFT(x []complex128) ([]complex128, error) {
	if !isPow2(len(x)) {
		return nil, fmt.Errorf("signal: FFT length %d is not a power of two", len(x))
	}
	out := append([]complex128(nil), x...)
	planFor(len(x)).transform(out, false)
	return out, nil
}

// IFFT returns the inverse DFT of x (scaled by 1/n). The length must be a
// power of two.
func IFFT(x []complex128) ([]complex128, error) {
	if !isPow2(len(x)) {
		return nil, fmt.Errorf("signal: IFFT length %d is not a power of two", len(x))
	}
	out := append([]complex128(nil), x...)
	planFor(len(x)).transform(out, true)
	return out, nil
}

// Convolution path selection: the FFT path wins once the per-output cost
// of the direct form (≈4·taps flops) exceeds the amortized butterfly cost
// of overlap-save blocks. The thresholds are calibrated by
// BenchmarkConvolution; below them the direct form's
// tight loop is faster and allocation-free.
const (
	fftMinTaps = 48
	fftMinLen  = 1024
)

// useFFT reports whether Apply should take the overlap-save path for a
// tap count and buffer length.
func useFFT(taps, n int) bool {
	return taps >= fftMinTaps && n >= fftMinLen && n >= 4*taps
}

// fftSizeFor picks the overlap-save block size for m taps: the cost per
// output sample ≈ 2·n·log2(n)/(n−m+1) butterflies is near-flat over a wide
// n range, so a fixed small multiple of the tap count stays within a few
// percent of optimal while keeping the pooled scratch buffers small.
func fftSizeFor(m int) int {
	n := nextPow2(8 * m)
	if n < 512 {
		n = 512
	}
	return n
}

// OverlapSave is one filter's overlap-save FFT convolver, cut into the
// blocks ApplyInto's FFT path runs: for m taps the block size is
// n = fftSizeFor(m), and each block yields hop = n−m+1 outputs from n
// inputs, the first m−1 of which are the previous block's history. A
// caller that synthesizes its input block by block (the relay's
// isolation probe) drives Block directly and gets ApplyInto's outputs
// bit for bit without holding the whole buffer.
type OverlapSave struct {
	plan *fftPlan
	h    []complex128 // transform of the zero-padded taps
}

// TakesFFTPath reports whether ApplyInto filters a length-n buffer with
// overlap-save FFT blocks (OverlapSave) rather than the direct form.
func (f FIR) TakesFFTPath(n int) bool { return useFFT(len(f.Taps), n) }

// OverlapSaveSize returns the block size n and the hop n−len(Taps)+1 of
// f's overlap-save partition.
func (f FIR) OverlapSaveSize() (n, hop int) {
	n = fftSizeFor(len(f.Taps))
	return n, n - len(f.Taps) + 1
}

// NewOverlapSave builds f's block convolver on h, caller-owned scratch
// of the block size (OverlapSaveSize) that it overwrites with the taps'
// transform; h must outlive every Block call.
func (f FIR) NewOverlapSave(h []complex128) OverlapSave {
	n := len(h)
	for i := range h {
		h[i] = 0
	}
	for i, t := range f.Taps {
		h[i] = complex(t, 0)
	}
	plan := planFor(n)
	plan.transform(h, false)
	return OverlapSave{plan: plan, h: h}
}

// Block convolves one block in place. On entry seg (block-size long)
// holds the inputs x[pos−m+1 : pos+hop) of the block whose outputs
// start at pos, zero where an index falls outside x; on return
// seg[m−1:] holds the outputs y[pos : pos+hop) of the zero-state
// convolution, and seg[:m−1] holds circular wrap-around to be ignored.
func (c OverlapSave) Block(seg []complex128) {
	c.plan.transform(seg, false)
	h := c.h[:len(seg)]
	for i := range seg {
		seg[i] *= h[i]
	}
	c.plan.transform(seg, true)
}

// applyFFTInto computes the same zero-state, same-length convolution as
// the direct form as a loop of OverlapSave blocks: each block's segment
// carries the previous m−1 inputs as history, so block boundaries are
// seamless and the output is bitwise-independent of the block size (up
// to FFT rounding, bounded ≤1e-9 against the direct path). dst and x
// must have equal length and may not alias.
func (f FIR) applyFFTInto(dst, x []complex128) {
	m := len(f.Taps)
	n, hop := f.OverlapSaveSize()
	h := GetIQ(n)
	defer PutIQ(h)
	conv := f.NewOverlapSave(h)

	seg := GetIQ(n)
	defer PutIQ(seg)
	for pos := 0; pos < len(x); pos += hop {
		lo := pos - (m - 1) // segment start in input coordinates
		for i := 0; i < n; i++ {
			idx := lo + i
			if idx < 0 || idx >= len(x) {
				seg[i] = 0
			} else {
				seg[i] = x[idx]
			}
		}
		conv.Block(seg)
		end := pos + hop
		if end > len(x) {
			end = len(x)
		}
		copy(dst[pos:end], seg[m-1:m-1+end-pos])
	}
}
