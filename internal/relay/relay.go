// Package relay implements RFly's core contribution: the phase-preserving,
// bidirectionally full-duplex relay of §4 and §6.1.
//
// The relay has a mirrored architecture (Fig. 8). The downlink path
// downconverts the reader's query with synthesizer A, low-pass filters at
// baseband, amplifies, and upconverts with synthesizer B to a carrier
// shifted by Config.ShiftHz. The uplink path downconverts the tag's
// backscatter with synthesizer B, band-pass filters around the 500 kHz
// backscatter link frequency, amplifies, and upconverts with synthesizer A.
// Because the SAME two synthesizers appear once in each direction, the
// random phase and frequency offsets they introduce cancel exactly (Eq. 6
// and §4.3), so the reader receives a phase-faithful copy of the tag's
// response — the property §7.1(b) measures and the SAR localizer requires.
//
// Self-interference (§4.1) is handled by two mechanisms, both modelled
// here with measurable honesty:
//
//   - Inter-link leakage (between the uplink and downlink paths) is
//     rejected by the baseband filters: the leak lands in the victim
//     filter's stop band, and the achieved rejection is the real FIR
//     response at the leak frequency.
//   - Intra-link leakage (a path's own output feeding back into its
//     input) lands far outside the filter passband after downconversion,
//     where an analog filter no longer follows its ideal curve; the model
//     therefore applies each filter's high-frequency feed-through floor
//     (FloorLPFdB/FloorBPFdB), which is what limits intra-link isolation —
//     exactly the paper's explanation for why intra < inter (§7.1).
//
// All four isolations are *measured* by injecting probe tones through the
// actual forwarding chains (MeasureIsolation), mirroring the paper's
// spectrum-analyzer procedure.
package relay

import (
	"fmt"
	"math"

	"rfly/internal/radio"
	"rfly/internal/rng"
	"rfly/internal/signal"
)

// Config holds the relay's design parameters. Zero values are replaced by
// DefaultConfig's entries in New.
type Config struct {
	Fs         float64 // simulation sample rate, Hz
	CenterFreq float64 // absolute RF band center the baseband is referred to
	ShiftHz    float64 // f2 − f carrier shift between the two half-links

	LPFCutoff float64 // downlink low-pass cutoff
	LPFTaps   int
	BPFCenter float64 // uplink band-pass center (the BLF)
	BPFHalfBW float64
	BPFTaps   int

	// Antenna port isolation, mean and per-build spread (dB). This is the
	// only isolation the analog baseline has.
	AntennaIsolationDB    float64
	AntennaIsolationSigma float64

	// High-frequency feed-through floors of the two analog filters, mean
	// and per-build spread (dB below passband).
	FloorLPFdB    float64
	FloorBPFdB    float64
	FloorSigmaDB  float64
	ProbeJitterDB float64 // per-trial measurement jitter

	// Gain hardware.
	DownVGAMaxDB float64
	UpVGAMaxDB   float64
	DriveGainDB  float64
	PAGainDB     float64
	PAP1dBm      float64

	// Mirrored selects the shared-synthesizer architecture. When false the
	// uplink uses independent synthesizers (the "No-Mirror" baseline of
	// Fig. 10).
	Mirrored bool

	// StabilityMarginDB is the loop-gain margin kept below isolation when
	// programming gains (§6.1).
	StabilityMarginDB float64
	// NoiseFigureDB is the uplink receive chain's composite noise figure,
	// the first SNR limit a backscattered reply meets.
	NoiseFigureDB float64

	// SynthPPM is the crystal error of an unshared synthesizer.
	SynthPPM float64
}

// DefaultConfig returns the reproduction's calibrated relay design: 8 MS/s
// baseband, 2 MHz half-link shift, 150 kHz Blackman low-pass, 500 kHz ±
// 250 kHz Blackman band-pass, and floors/antenna isolation that land the
// four measured isolations near the paper's 110/92/77/64 dB medians.
func DefaultConfig() Config {
	return Config{
		Fs:         8e6,
		CenterFreq: 915e6,
		ShiftHz:    2e6,

		LPFCutoff: 150e3,
		LPFTaps:   63,
		BPFCenter: 500e3,
		BPFHalfBW: 250e3,
		BPFTaps:   95,

		AntennaIsolationDB:    35,
		AntennaIsolationSigma: 3,
		FloorLPFdB:            42,
		FloorBPFdB:            29,
		FloorSigmaDB:          2,
		ProbeJitterDB:         1.5,

		DownVGAMaxDB: 35,
		UpVGAMaxDB:   45,
		DriveGainDB:  12,
		PAGainDB:     20,
		PAP1dBm:      29,

		Mirrored:          true,
		StabilityMarginDB: 10,
		NoiseFigureDB:     5,
		SynthPPM:          2,
	}
}

// Relay is one RFly relay instance with its per-build component draws.
type Relay struct {
	Cfg Config

	// SynthA tracks the reader's carrier; SynthB generates the shifted
	// carrier. In the mirrored architecture each is shared between one
	// downconversion and one upconversion.
	SynthA *radio.Synthesizer
	SynthB *radio.Synthesizer
	// synthA2/synthB2 replace the uplink's synthesizers when Mirrored is
	// false (independent oscillators with their own phase and ppm error).
	synthA2 *radio.Synthesizer
	synthB2 *radio.Synthesizer

	LPF signal.FIR
	BPF signal.FIR
	// floorHPF shapes the feed-through floor: capacitive leakage across an
	// analog filter rises with frequency, so the floor is negligible in the
	// low-frequency region the FIR stop bands cover and fully present at
	// the multi-MHz intra-link offsets.
	floorHPF signal.FIR

	DownVGA *radio.VGA
	UpVGA   *radio.VGA

	// Per-build draws.
	antIsoDB   float64
	lpfFloorDB float64
	bpfFloorDB float64

	locked     bool
	readerFreq float64 // detected reader carrier offset from band center
	cfoHz      float64 // injected LO drift since the last (re-)lock

	src *rng.Source
}

// New builds a relay, drawing per-unit component variation from src.
func New(cfg Config, src *rng.Source) *Relay {
	def := DefaultConfig()
	if cfg.Fs == 0 {
		cfg = def
	}
	r := &Relay{
		Cfg:      cfg,
		SynthA:   &radio.Synthesizer{Name: "synthA", PPM: cfg.SynthPPM, RefCar: cfg.CenterFreq},
		SynthB:   &radio.Synthesizer{Name: "synthB", PPM: cfg.SynthPPM, RefCar: cfg.CenterFreq},
		synthA2:  &radio.Synthesizer{Name: "synthA2", PPM: cfg.SynthPPM, RefCar: cfg.CenterFreq},
		synthB2:  &radio.Synthesizer{Name: "synthB2", PPM: cfg.SynthPPM, RefCar: cfg.CenterFreq},
		LPF:      signal.LowPassWin(cfg.LPFCutoff, cfg.Fs, cfg.LPFTaps, signal.Blackman),
		BPF:      signal.BandPassWin(cfg.BPFCenter, cfg.BPFHalfBW, cfg.Fs, cfg.BPFTaps, signal.Blackman),
		DownVGA:  radio.NewVGA(0, cfg.DownVGAMaxDB, 3),
		UpVGA:    radio.NewVGA(0, cfg.UpVGAMaxDB, 3),
		floorHPF: signal.HighPassWin(1e6, cfg.Fs, 31, signal.Hamming),
		src:      src,
	}
	build := src.Split("relay-build")
	r.antIsoDB = build.Gaussian(cfg.AntennaIsolationDB, cfg.AntennaIsolationSigma)
	r.lpfFloorDB = build.Gaussian(cfg.FloorLPFdB, cfg.FloorSigmaDB)
	r.bpfFloorDB = build.Gaussian(cfg.FloorBPFdB, cfg.FloorSigmaDB)
	return r
}

// AntennaIsolationDB returns this unit's drawn antenna port isolation.
func (r *Relay) AntennaIsolationDB() float64 { return r.antIsoDB }

// Locked reports whether the relay has locked to a reader carrier.
func (r *Relay) Locked() bool { return r.locked }

// ReaderFreq returns the locked reader carrier offset (Hz from band
// center). Valid only when Locked.
func (r *Relay) ReaderFreq() float64 { return r.readerFreq }

// ISMChannels returns the candidate reader carriers the frequency sweep
// correlates against: the US 902–928 MHz hopping grid as offsets from the
// band center, limited to what the baseband sample rate can represent.
func (r *Relay) ISMChannels() []float64 {
	var out []float64
	half := r.Cfg.Fs/2 - r.Cfg.ShiftHz - 1e6 // leave room for the shifted copy
	for f := -half; f <= half+1; f += 500e3 {
		out = append(out, f)
	}
	return out
}

// LockToReader runs the §4.2 frequency discovery: it sweeps the candidate
// ISM channels over the received waveform (Eq. 5's streaming correlation),
// locks both synthesizers, and returns the detected carrier offset. The
// strongest carrier wins, which is also how the relay picks among multiple
// readers (§4.3).
func (r *Relay) LockToReader(rx []complex128) (float64, error) {
	return r.AcquireLock(rx, nil)
}

// AcquireLock is the sweep/lock primitive every lock path routes through:
// it runs the Eq. 5 energy detection over candidates (nil means the full
// ISM grid), locks to the strongest detected carrier, and returns it. A
// capture with no detectable carrier surfaces as an error and leaves the
// relay's lock state untouched — the caller (a watchdog, a hop follower)
// decides whether to back off and retry.
func (r *Relay) AcquireLock(rx []complex128, candidates []float64) (float64, error) {
	best, err := r.DetectCarrier(rx, candidates)
	if err != nil {
		return 0, err
	}
	r.Lock(best)
	return best, nil
}

// DetectCarrier runs the Eq. 5 sweep without touching the lock state and
// returns the strongest candidate carrier. Callers that must verify a
// specific expectation (a hop follower, a daisy chain) check the result
// before committing to a Lock.
func (r *Relay) DetectCarrier(rx []complex128, candidates []float64) (float64, error) {
	if len(rx) == 0 {
		return 0, fmt.Errorf("relay: empty capture")
	}
	if candidates == nil {
		candidates = r.ISMChannels()
	}
	best, p, ok := signal.EnergyDetect(rx, candidates, r.Cfg.Fs)
	if !ok {
		return 0, fmt.Errorf("relay: no candidate carriers to sweep")
	}
	if p <= 0 {
		return 0, fmt.Errorf("relay: no carrier detected")
	}
	return best, nil
}

// Lock tunes the synthesizers to a known reader offset (used by tests and
// by the fast simulation path once LockToReader has been validated).
// Retuning the PLLs also clears any accumulated LO drift (ApplyCFO): a
// re-lock is exactly how the hardware recovers from synthesizer drift.
func (r *Relay) Lock(freq float64) {
	r.readerFreq = freq
	r.cfoHz = 0
	r.SynthA.Tune(freq, r.src.Split("synthA"))
	r.SynthB.Tune(freq+r.Cfg.ShiftHz, r.src.Split("synthB"))
	r.synthA2.Tune(freq, r.src.Split("synthA2"))
	r.synthB2.Tune(freq+r.Cfg.ShiftHz, r.src.Split("synthB2"))
	r.locked = true
}

// Unlock drops the relay's carrier lock without touching the synthesizers
// — the state a watchdog puts the relay in when the energy detector stops
// seeing the reader, before the backoff re-sweep.
func (r *Relay) Unlock() { r.locked = false }

// ApplyCFO adds a carrier-frequency drift to the relay's local oscillator
// chain — the fault.SynthDrift mutation hook. The drift accumulates
// across calls (crystals walk, they don't jump back) and is only cleared
// by a re-lock.
func (r *Relay) ApplyCFO(hz float64) { r.cfoHz += hz }

// CFOHz returns the accumulated LO drift since the last lock.
func (r *Relay) CFOHz() float64 { return r.cfoHz }

// SetAntennaIsolationDB overrides this unit's antenna port isolation —
// the fault.IsolationCollapse mutation hook (and a test hook for building
// a relay with a known isolation draw).
func (r *Relay) SetAntennaIsolationDB(db float64) { r.antIsoDB = db }

// cascade is one direction's amplifier chain held in a fixed array, so a
// resolved path carries it without allocating.
type cascade struct {
	stages [3]radio.Amplifier
	n      int
}

// chain returns the cascade as a radio.Chain over its own array.
func (c *cascade) chain() radio.Chain { return radio.Chain{Stages: c.stages[:c.n]} }

// cascade returns a direction's amplifier cascade: VGA → drive → PA on
// the downlink; the VGA alone on the uplink (gain placed after the
// band-pass filter to avoid saturation from the relayed query, §6.1).
func (r *Relay) cascade(uplink bool) cascade {
	if uplink {
		return cascade{stages: [3]radio.Amplifier{r.UpVGA.Amplifier()}, n: 1}
	}
	return cascade{stages: [3]radio.Amplifier{
		r.DownVGA.Amplifier(),
		{GainDB: r.Cfg.DriveGainDB, NFdB: 4},
		{GainDB: r.Cfg.PAGainDB, NFdB: 6, P1dBm: r.Cfg.PAP1dBm, HasP1dB: true},
	}, n: 3}
}

// DownlinkGainDB returns the downlink path's programmed small-signal gain.
func (r *Relay) DownlinkGainDB() float64 {
	c := r.cascade(false)
	return c.chain().GainDB()
}

// UplinkGainDB returns the uplink path's programmed small-signal gain.
func (r *Relay) UplinkGainDB() float64 {
	c := r.cascade(true)
	return c.chain().GainDB()
}

// addFloor adds the analog filter's high-frequency feed-through in place:
// leak (the raw baseband input through floorHPF — leakage grows with
// frequency), attenuated by floorDB, accumulated onto the filtered
// buffer.
func addFloor(filtered, leak []complex128, floorDB float64) {
	g := complex(signal.AmpFromDB(-floorDB), 0)
	for i := range filtered {
		filtered[i] += leak[i] * g
	}
}

// drifted returns a synthesizer's oscillator with the accumulated LO
// drift applied. In the mirrored architecture the drift cancels between
// the down- and up-conversion of one path, but the baseband lands offset
// by the CFO — so a large enough drift pushes the signal out of the
// analog filters and the relay effectively goes dark, which is exactly
// how lock loss manifests on the hardware.
func (r *Relay) drifted(s *radio.Synthesizer) (signal.Oscillator, error) {
	osc, err := s.Oscillator()
	if err != nil {
		return signal.Oscillator{}, err
	}
	osc.Freq += r.cfoHz
	return osc, nil
}

// path is one direction's forwarding chain resolved against the current
// lock: down-mix oscillator, baseband filter with its feed-through
// floor, amplifier cascade, up-mix oscillator.
type path struct {
	down, up signal.Oscillator
	filter   signal.FIR
	floorDB  float64
	amps     cascade
}

// path resolves the downlink (synth A down, low-pass, synth B up) or the
// uplink (synth B down, band-pass, synth A up; the independent second
// pair when the relay is not mirrored). Resolving before a lock (or
// after a fault cleared one) is an error, not a panic: a flying relay
// must survive it.
func (r *Relay) path(uplink bool) (path, error) {
	dir, downSynth, upSynth := "downlink", r.SynthA, r.SynthB
	p := path{filter: r.LPF, floorDB: r.lpfFloorDB}
	if uplink {
		dir, downSynth, upSynth = "uplink", r.SynthB, r.SynthA
		if !r.Cfg.Mirrored {
			downSynth, upSynth = r.synthB2, r.synthA2
		}
		p.filter, p.floorDB = r.BPF, r.bpfFloorDB
	}
	if !r.locked {
		return path{}, fmt.Errorf("relay: %s forward before carrier lock", dir)
	}
	var err error
	if p.down, err = r.drifted(downSynth); err != nil {
		return path{}, err
	}
	if p.up, err = r.drifted(upSynth); err != nil {
		return path{}, err
	}
	p.amps = r.cascade(uplink)
	return p, nil
}

// ForwardDownlink runs a received waveform (reader frame, around the
// locked carrier) through the downlink path: downconvert with synth A,
// low-pass filter (with feed-through floor), amplify, upconvert with
// synth B. startSample anchors oscillator phase continuity across calls.
func (r *Relay) ForwardDownlink(x []complex128, startSample int) ([]complex128, error) {
	return r.forward(x, startSample, false)
}

// ForwardUplink runs a received waveform (tag frame, around the shifted
// carrier) through the uplink path: downconvert with synth B, band-pass
// filter (with feed-through floor), amplify, upconvert with synth A. In
// the mirrored architecture the same synthesizers as the downlink are
// used, cancelling their phase offsets; the no-mirror baseline uses the
// independent second pair.
func (r *Relay) ForwardUplink(x []complex128, startSample int) ([]complex128, error) {
	return r.forward(x, startSample, true)
}

// forward runs x through one direction's path into a fresh output, which
// doubles as the floor's leak scratch before the last mix fills it.
func (r *Relay) forward(x []complex128, startSample int, uplink bool) ([]complex128, error) {
	p, err := r.path(uplink)
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	bb := signal.GetIQ(len(x))
	defer signal.PutIQ(bb)
	p.down.MixDownInto(bb, x, r.Cfg.Fs, startSample)
	filt := signal.GetIQ(len(x))
	defer signal.PutIQ(filt)
	p.filter.ApplyInto(filt, bb)
	r.floorHPF.ApplyInto(out, bb)
	addFloor(filt, out, p.floorDB)
	p.amps.chain().Apply(filt, 0, nil)
	p.up.MixUpInto(out, filt, r.Cfg.Fs, startSample)
	return out, nil
}

// HardwarePhase returns the constant phase the mirrored relay imparts on a
// fully forwarded (downlink + uplink) signal: zero frequency error by
// construction, with only the fixed group delay of the two filters. The
// embedded reference tag factors this constant out during localization
// (§5.1 footnote 6).
func (r *Relay) HardwarePhase() float64 {
	delay := float64(r.LPF.GroupDelay()+r.BPF.GroupDelay()) / r.Cfg.Fs
	return signal.WrapPhase(-2 * math.Pi * r.readerFreq * delay)
}

// PowerBudget describes the relay's electrical draw on the drone (§6.2).
type PowerBudget struct {
	SupplyVolts    float64
	PowerWatts     float64
	BatteryVolts   float64
	BatteryMaxAmps float64
}

// DefaultPowerBudget returns the paper's measured numbers: 5.8 W at 5.5 V
// via a DC-DC converter from the drone's 12 V battery rated for 21.6 A.
func DefaultPowerBudget() PowerBudget {
	return PowerBudget{SupplyVolts: 5.5, PowerWatts: 5.8, BatteryVolts: 12, BatteryMaxAmps: 21.6}
}

// BatteryAmps returns the current drawn from the drone battery.
func (p PowerBudget) BatteryAmps() float64 { return p.PowerWatts / p.BatteryVolts }

// BatteryFraction returns the fraction of the battery's current capability
// the relay consumes (<3% in the paper).
func (p PowerBudget) BatteryFraction() float64 {
	return p.BatteryAmps() / p.BatteryMaxAmps
}

// Validate rejects physically meaningless or aliasing relay designs
// before any hardware is "built". New does not call it (zero configs are
// replaced by DefaultConfig there); bench tooling and config-driven
// callers should.
func (c Config) Validate() error {
	if c.Fs <= 0 {
		return fmt.Errorf("relay: sample rate %g must be positive", c.Fs)
	}
	nyq := c.Fs / 2
	if c.ShiftHz <= 0 {
		return fmt.Errorf("relay: carrier shift %g must be positive", c.ShiftHz)
	}
	// The shifted copy of the uplink (carrier + BLF + modulation) must
	// stay below Nyquist or it folds back into the band.
	if top := c.ShiftHz + c.BPFCenter + c.BPFHalfBW; top >= nyq {
		return fmt.Errorf("relay: shifted uplink edge %.0f Hz ≥ Nyquist %.0f Hz (aliases)", top, nyq)
	}
	if c.LPFCutoff <= 0 || c.LPFCutoff >= nyq {
		return fmt.Errorf("relay: LPF cutoff %g outside (0, %g)", c.LPFCutoff, nyq)
	}
	if c.BPFHalfBW <= 0 || c.BPFCenter <= c.BPFHalfBW {
		return fmt.Errorf("relay: BPF %g±%g Hz does not sit above DC", c.BPFCenter, c.BPFHalfBW)
	}
	if c.BPFCenter+c.BPFHalfBW >= nyq {
		return fmt.Errorf("relay: BPF upper edge %g ≥ Nyquist %g", c.BPFCenter+c.BPFHalfBW, nyq)
	}
	for _, t := range []struct {
		name string
		n    int
	}{{"LPF", c.LPFTaps}, {"BPF", c.BPFTaps}} {
		if t.n < 3 || t.n%2 == 0 {
			return fmt.Errorf("relay: %s taps %d must be odd and ≥ 3 (linear phase)", t.name, t.n)
		}
	}
	// The downlink must pass PIE command bandwidth: a 25 µs Tari needs
	// ≥ ~40 kHz of passband.
	if c.LPFCutoff < 40e3 {
		return fmt.Errorf("relay: LPF cutoff %g kHz too narrow for PIE commands", c.LPFCutoff/1e3)
	}
	if c.StabilityMarginDB < 0 {
		return fmt.Errorf("relay: negative stability margin %g", c.StabilityMarginDB)
	}
	return nil
}
