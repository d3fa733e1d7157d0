// Package signal implements the complex-baseband DSP substrate of the RFly
// simulation: IQ sample buffers, oscillators and mixers, windowed-sinc FIR
// filter design, single-bin (Goertzel) power measurement, additive noise,
// and decibel arithmetic.
//
// All waveforms are represented as []complex128 sampled at an explicit rate
// around a nominal carrier. Passband effects — propagation phase
// e^{−j2πf·d/c}, carrier frequency offsets, filter selectivity — are applied
// at baseband, which is exactly how the paper's USRP reader and the relay's
// downconvert/filter/upconvert chain process the signal.
package signal

import (
	"fmt"
	"math"
	"math/cmplx"
)

// C is the speed of light in meters per second.
const C = 299792458.0

// DefaultSampleRate is the simulation's default complex sample rate. 4 MS/s
// comfortably contains the Gen2 downlink (≤125 kHz) and the tag backscatter
// link frequency (up to 640 kHz) plus the relay's ≥1 MHz intra-link
// frequency shift.
const DefaultSampleRate = 4e6

// DB converts a linear power ratio to decibels.
func DB(ratio float64) float64 { return 10 * math.Log10(ratio) }

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// AmpFromDB converts a decibel power gain to a linear amplitude gain.
func AmpFromDB(db float64) float64 { return math.Pow(10, db/20) }

// DBm converts a linear power in watts to dBm.
func DBm(watts float64) float64 { return 10*math.Log10(watts) + 30 }

// WattsFromDBm converts dBm to watts.
func WattsFromDBm(dbm float64) float64 { return math.Pow(10, (dbm-30)/10) }

// Power returns the mean sample power of x (|x|² averaged), which the
// simulation treats as watts when the buffer carries a calibrated waveform.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return AddEnergy(0, x) / float64(len(x))
}

// AddEnergy returns sum + Σ|x|², adding in ascending index order, so
// feeding a buffer's blocks through it in order reproduces Power's sum
// over the whole buffer bit for bit.
func AddEnergy(sum float64, x []complex128) float64 {
	for _, v := range x {
		re, im := real(v), imag(v)
		sum += re*re + im*im
	}
	return sum
}

// PowerDBm returns the mean sample power of x in dBm (−inf for silence).
func PowerDBm(x []complex128) float64 {
	p := Power(x)
	if p <= 0 {
		return math.Inf(-1)
	}
	return DBm(p)
}

// Scale multiplies every sample by the (possibly complex) gain g in place
// and returns x for chaining.
func Scale(x []complex128, g complex128) []complex128 {
	for i := range x {
		x[i] *= g
	}
	return x
}

// Add accumulates src into dst element-wise (up to the shorter length) and
// returns dst.
func Add(dst, src []complex128) []complex128 {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i] += src[i]
	}
	return dst
}

// Tone synthesizes n samples of a complex exponential at frequency freq
// (Hz, relative to the buffer's center), sample rate fs, initial phase
// phase, and amplitude amp.
func Tone(n int, freq, fs, phase, amp float64) []complex128 {
	out := make([]complex128, n)
	ToneInto(out, freq, fs, phase, amp)
	return out
}

// ToneInto is Tone writing len(dst) samples into a caller-supplied buffer
// (typically pooled scratch, see GetIQ).
func ToneInto(dst []complex128, freq, fs, phase, amp float64) {
	ToneAtInto(dst, freq, fs, phase, amp, 0)
}

// ToneAtInto writes the tone's samples start … start+len(dst)−1 into
// dst, the same values ToneInto writes at those indices of a longer
// buffer, so a tone can be synthesized block by block.
func ToneAtInto(dst []complex128, freq, fs, phase, amp float64, start int) {
	w := 2 * math.Pi * freq / fs
	for i := range dst {
		dst[i] = cmplx.Rect(amp, phase+w*float64(start+i))
	}
}

// Oscillator models a frequency synthesizer output: a complex exponential
// with a frequency, a phase origin, and optionally a carrier frequency
// offset (in ppm of the nominal) representing an unlocked crystal.
//
// The relay's mirrored architecture is expressed by using the *same*
// Oscillator value for downlink downconversion and uplink upconversion: the
// phase offset each introduces then cancels exactly, per §4.3.
type Oscillator struct {
	Freq  float64 // nominal frequency offset from band center, Hz
	Phase float64 // phase at sample 0, radians
	PPM   float64 // fractional frequency error in parts-per-million of Ref
	Ref   float64 // absolute reference frequency the PPM applies to, Hz
}

// effFreq returns the oscillator's effective frequency including its ppm
// error term.
func (o Oscillator) effFreq() float64 {
	return o.Freq + o.PPM*1e-6*o.Ref
}

// MixDown multiplies x by e^{−j(2πf t + φ)}: downconversion by the
// oscillator. startSample anchors the phase ramp so that successive buffer
// segments remain phase-continuous.
func (o Oscillator) MixDown(x []complex128, fs float64, startSample int) []complex128 {
	return o.mix(x, fs, startSample, -1)
}

// MixUp multiplies x by e^{+j(2πf t + φ)}: upconversion by the oscillator.
func (o Oscillator) MixUp(x []complex128, fs float64, startSample int) []complex128 {
	return o.mix(x, fs, startSample, +1)
}

func (o Oscillator) mix(x []complex128, fs float64, startSample int, sign float64) []complex128 {
	out := make([]complex128, len(x))
	o.mixInto(out, x, fs, startSample, sign)
	return out
}

// MixDownInto is MixDown writing into a caller-supplied buffer (typically
// pooled scratch, see GetIQ); dst and x must have equal length.
func (o Oscillator) MixDownInto(dst, x []complex128, fs float64, startSample int) {
	o.mixInto(dst, x, fs, startSample, -1)
}

// MixUpInto is MixUp writing into a caller-supplied buffer.
func (o Oscillator) MixUpInto(dst, x []complex128, fs float64, startSample int) {
	o.mixInto(dst, x, fs, startSample, +1)
}

func (o Oscillator) mixInto(dst, x []complex128, fs float64, startSample int, sign float64) {
	w := sign * 2 * math.Pi * o.effFreq() / fs
	ph := sign * o.Phase
	for i := range x {
		dst[i] = x[i] * cmplx.Rect(1, ph+w*float64(startSample+i))
	}
}

// FIR is a finite-impulse-response filter with real taps. Apply performs
// zero-state convolution returning a same-length output (the group delay of
// (len(taps)−1)/2 samples is *not* compensated; callers that need aligned
// timing use GroupDelay).
type FIR struct {
	Taps []float64
}

// GroupDelay returns the filter's group delay in samples for linear-phase
// (symmetric) taps.
func (f FIR) GroupDelay() int { return (len(f.Taps) - 1) / 2 }

// Apply filters x, returning a buffer of the same length. Long filters
// over long buffers are convolved with the overlap-save FFT path (see
// fft.go), which is output-equivalent to the direct form to ≤1e-9; short
// ones take the direct loop.
func (f FIR) Apply(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	f.ApplyInto(out, x)
	return out
}

// ApplyInto is Apply writing into a caller-supplied buffer (typically
// pooled scratch, see GetIQ). dst and x must have equal length and must
// not alias.
func (f FIR) ApplyInto(dst, x []complex128) {
	if useFFT(len(f.Taps), len(x)) {
		f.applyFFTInto(dst, x)
		return
	}
	f.applyDirectInto(dst, x)
}

// ApplyDirect always takes the O(taps × samples) direct form — the
// reference implementation the FFT path is verified against.
func (f FIR) ApplyDirect(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	f.applyDirectInto(out, x)
	return out
}

// applyDirectInto accumulates the real and imaginary parts separately:
// for finite input this is bit-identical to summing complex(t, 0)*x[idx],
// whose dropped 0·b cross terms are signed zeros that cannot change a sum
// starting at +0, at half the multiplies. The first len(taps) outputs
// see a truncated history (the loop stops at x[0]); the rest are
// ApplyDirectFrom's branch-free steady state, summed in the same order.
func (f FIR) applyDirectInto(dst, x []complex128) {
	taps := f.Taps
	head := min(len(taps), len(x))
	for n := 0; n < head; n++ {
		var re, im float64
		for k, t := range taps {
			idx := n - k
			if idx < 0 {
				break
			}
			v := x[idx]
			re += t * real(v)
			im += t * imag(v)
		}
		dst[n] = complex(re, im)
	}
	f.ApplyDirectFrom(dst[head:len(x)], x, head)
}

// ApplyDirectFrom writes the direct form's outputs at indices
// from … from+len(dst)−1 of x into dst: dst[i] = Σₖ taps[k]·x[from+i−k],
// summed in ascending k exactly like ApplyDirect, so each value is
// ApplyDirect(x)[from+i] bit for bit. from must be ≥ len(taps)−1 (every
// tap has history) and from+len(dst) ≤ len(x). Four outputs share each
// pass over the taps, which keeps eight independent sums in flight
// instead of one output's two dependent chains.
func (f FIR) ApplyDirectFrom(dst, x []complex128, from int) {
	taps := f.Taps
	m := len(taps)
	i := 0
	for ; i+3 < len(dst); i += 4 {
		n := from + i
		w := x[n+1-m : n+4] // w[m−1−k+j] = x[n+j−k]
		var re0, im0, re1, im1, re2, im2, re3, im3 float64
		for k, t := range taps {
			v := w[m-1-k : m+3-k]
			re0 += t * real(v[0])
			im0 += t * imag(v[0])
			re1 += t * real(v[1])
			im1 += t * imag(v[1])
			re2 += t * real(v[2])
			im2 += t * imag(v[2])
			re3 += t * real(v[3])
			im3 += t * imag(v[3])
		}
		dst[i] = complex(re0, im0)
		dst[i+1] = complex(re1, im1)
		dst[i+2] = complex(re2, im2)
		dst[i+3] = complex(re3, im3)
	}
	for ; i < len(dst); i++ {
		n := from + i
		w := x[n+1-m : n+1]
		var re, im float64
		for k, t := range taps {
			v := w[m-1-k]
			re += t * real(v)
			im += t * imag(v)
		}
		dst[i] = complex(re, im)
	}
}

// ResponseAt returns the filter's power response in dB at frequency f for
// sample rate fs, evaluated directly from the tap DTFT. This is how the
// relay model derives filter stop-band rejection for its isolation budget.
func (f FIR) ResponseAt(freq, fs float64) float64 {
	var acc complex128
	w := -2 * math.Pi * freq / fs
	for k, t := range f.Taps {
		acc += complex(t, 0) * cmplx.Rect(1, w*float64(k))
	}
	p := real(acc)*real(acc) + imag(acc)*imag(acc)
	if p <= 0 {
		return math.Inf(-1)
	}
	return DB(p)
}

// Window selects the FIR design window. Hamming reaches ≈−53 dB stopband;
// Blackman reaches ≈−74 dB and is what the relay's deep inter-link
// rejection uses.
type Window int

// Supported design windows.
const (
	Hamming Window = iota
	Blackman
)

func windowValue(w Window, i, m int) float64 {
	x := 2 * math.Pi * float64(i) / float64(m)
	switch w {
	case Blackman:
		return 0.42 - 0.5*math.Cos(x) + 0.08*math.Cos(2*x)
	default:
		return 0.54 - 0.46*math.Cos(x)
	}
}

// LowPass designs a windowed-sinc (Hamming) low-pass FIR with the given
// cutoff frequency, sample rate, and tap count (made odd if necessary).
// The relay's downlink uses a low-pass per §6.1.
func LowPass(cutoff, fs float64, taps int) FIR {
	return LowPassWin(cutoff, fs, taps, Hamming)
}

// LowPassWin designs a windowed-sinc low-pass FIR with an explicit window.
// Designs are memoized on (cutoff, fs, taps, window): repeated calls share
// one immutable taps slice (see cache.go), so relay-chain construction
// stops redesigning identical filters.
func LowPassWin(cutoff, fs float64, taps int, win Window) FIR {
	return cachedDesign(filterKey{kind: kindLowPass, win: win, f1: cutoff, fs: fs, taps: taps},
		func() FIR { return designLowPass(cutoff, fs, taps, win) })
}

func designLowPass(cutoff, fs float64, taps int, win Window) FIR {
	if taps%2 == 0 {
		taps++
	}
	if taps < 3 {
		taps = 3
	}
	h := make([]float64, taps)
	fc := cutoff / fs // normalized (cycles/sample)
	m := taps - 1
	var sum float64
	for i := 0; i < taps; i++ {
		x := float64(i) - float64(m)/2
		var v float64
		if x == 0 {
			v = 2 * fc
		} else {
			v = math.Sin(2*math.Pi*fc*x) / (math.Pi * x)
		}
		v *= windowValue(win, i, m)
		h[i] = v
		sum += v
	}
	// Normalize to unity DC gain.
	for i := range h {
		h[i] /= sum
	}
	return FIR{Taps: h}
}

// BandPass designs a windowed-sinc band-pass FIR centered at center with
// the given half-bandwidth (so passband = center ± halfBW), Hamming window.
func BandPass(center, halfBW, fs float64, taps int) FIR {
	return BandPassWin(center, halfBW, fs, taps, Hamming)
}

// BandPassWin designs a band-pass FIR with an explicit window. The relay's
// uplink uses a Blackman band-pass centered at the 500 kHz backscatter
// link frequency per §6.1. The passband gain is normalized to unity at
// center. Designs are memoized like LowPassWin's.
func BandPassWin(center, halfBW, fs float64, taps int, win Window) FIR {
	return cachedDesign(filterKey{kind: kindBandPass, win: win, f1: center, f2: halfBW, fs: fs, taps: taps},
		func() FIR { return designBandPass(center, halfBW, fs, taps, win) })
}

func designBandPass(center, halfBW, fs float64, taps int, win Window) FIR {
	lp := LowPassWin(halfBW, fs, taps, win)
	h := make([]float64, len(lp.Taps))
	m := len(h) - 1
	w := 2 * math.Pi * center / fs
	for i := range h {
		x := float64(i) - float64(m)/2
		h[i] = 2 * lp.Taps[i] * math.Cos(w*x)
	}
	f := FIR{Taps: h}
	// Normalize passband gain at the center frequency to unity.
	amp := math.Pow(10, -f.ResponseAt(center, fs)/20)
	for i := range h {
		h[i] *= amp
	}
	return FIR{Taps: h}
}

// HighPassWin designs a high-pass FIR by spectral inversion of a low-pass:
// unity gain far above the cutoff, deep rejection near DC. The relay model
// uses it to shape the frequency-dependent feed-through floor of its
// analog filters (capacitive leakage grows with frequency).
func HighPassWin(cutoff, fs float64, taps int, win Window) FIR {
	return cachedDesign(filterKey{kind: kindHighPass, win: win, f1: cutoff, fs: fs, taps: taps},
		func() FIR { return designHighPass(cutoff, fs, taps, win) })
}

func designHighPass(cutoff, fs float64, taps int, win Window) FIR {
	lp := LowPassWin(cutoff, fs, taps, win)
	h := make([]float64, len(lp.Taps))
	for i, t := range lp.Taps {
		h[i] = -t
	}
	h[(len(h)-1)/2] += 1
	return FIR{Taps: h}
}

// GoertzelPower measures the signal power concentrated at frequency freq in
// x (sample rate fs) using the Goertzel single-bin DFT, normalized so that
// a unit-amplitude complex tone at freq reports power 1.0. It is the
// simulation's spectrum-analyzer probe.
//
// This is the real second-order Goertzel recurrence — one real×complex
// multiply per sample instead of the naive bin's per-sample sin/cos — so
// EnergyDetect's carrier sweep pays roughly half the per-bin cost. The
// extraction step recovers |X(ω)|² for X(ω) = Σ x[n]·e^{−jωn}, matching
// the direct sum to float64 rounding (cross-checked in the tests).
func GoertzelPower(x []complex128, freq, fs float64) float64 {
	if len(x) == 0 {
		return 0
	}
	w := 2 * math.Pi * freq / fs
	coeff := complex(2*math.Cos(w), 0)
	var s1, s2 complex128 // s[n−1], s[n−2] of s[n] = x[n] + 2cos(ω)s[n−1] − s[n−2]
	for _, v := range x {
		s0 := v + coeff*s1 - s2
		s2, s1 = s1, s0
	}
	// y = s[N−1] − e^{−jω}·s[N−2] equals X(ω) up to a unit-modulus phase
	// factor, so |y|² is the bin power directly.
	y := s1 - cmplx.Rect(1, -w)*s2
	n := float64(len(x))
	return (real(y)*real(y) + imag(y)*imag(y)) / (n * n)
}

// EnergyDetect sweeps candidate center frequencies and returns the one with
// the maximum Goertzel power together with that power — Eq. 5's streaming
// argmax correlation, used by the relay to lock onto a reader's carrier.
// ok is false when candidates is empty: there is then no argmax, and the
// zero-valued best/power must not be mistaken for a 0 Hz lock.
func EnergyDetect(x []complex128, candidates []float64, fs float64) (best float64, power float64, ok bool) {
	power = -1
	for _, f := range candidates {
		if p := GoertzelPower(x, f, fs); p > power {
			power, best, ok = p, f, true
		}
	}
	if !ok {
		return 0, 0, false
	}
	return best, power, true
}

// AWGN adds circularly-symmetric white Gaussian noise of total power
// noiseWatts to x in place. The src function must return independent
// standard Gaussian draws (the rng package's Source.Norm).
func AWGN(x []complex128, noiseWatts float64, norm func() float64) []complex128 {
	if noiseWatts <= 0 {
		return x
	}
	sigma := math.Sqrt(noiseWatts / 2)
	for i := range x {
		x[i] += complex(sigma*norm(), sigma*norm())
	}
	return x
}

// ThermalNoiseWatts returns kTB thermal noise power in watts for bandwidth
// bw (Hz) plus a receiver noise figure nfDB, at T = 290 K.
func ThermalNoiseWatts(bw, nfDB float64) float64 {
	const kT = 4.0045e-21 // k * 290K, W/Hz
	return kT * bw * FromDB(nfDB)
}

// SNRdB returns the power SNR in dB given signal and noise in watts.
func SNRdB(sig, noise float64) float64 {
	if noise <= 0 {
		return math.Inf(1)
	}
	if sig <= 0 {
		return math.Inf(-1)
	}
	return DB(sig / noise)
}

// Delay returns x delayed by whole samples with zero fill (timing model for
// path propagation when sample-level alignment matters).
func Delay(x []complex128, samples int) []complex128 {
	if samples <= 0 {
		return append([]complex128(nil), x...)
	}
	out := make([]complex128, len(x))
	copy(out[samples:], x)
	return out
}

// Correlate returns the normalized complex correlation of a and b over their
// overlapping length: Σ a·conj(b) / sqrt(Σ|a|² Σ|b|²). The magnitude is 1
// for identical signals up to a complex scale — the decoder's template
// match statistic.
func Correlate(a, b []complex128) complex128 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var acc complex128
	var pa, pb float64
	for i := 0; i < n; i++ {
		acc += a[i] * cmplx.Conj(b[i])
		pa += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
		pb += real(b[i])*real(b[i]) + imag(b[i])*imag(b[i])
	}
	den := math.Sqrt(pa * pb)
	if den == 0 {
		return 0
	}
	return acc / complex(den, 0)
}

// WrapPhase wraps an angle to (−π, π].
func WrapPhase(ph float64) float64 {
	for ph > math.Pi {
		ph -= 2 * math.Pi
	}
	for ph <= -math.Pi {
		ph += 2 * math.Pi
	}
	return ph
}

// PhaseDiffDeg returns the absolute phase difference between two complex
// values in degrees, in [0, 180].
func PhaseDiffDeg(a, b complex128) float64 {
	d := WrapPhase(cmplx.Phase(a) - cmplx.Phase(b))
	return math.Abs(d) * 180 / math.Pi
}

// FormatDBm renders a power for diagnostics.
func FormatDBm(w float64) string {
	if w <= 0 {
		return "-inf dBm"
	}
	return fmt.Sprintf("%.1f dBm", DBm(w))
}
