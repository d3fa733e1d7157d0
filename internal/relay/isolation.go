package relay

import (
	"fmt"
	"math"

	"rfly/internal/rng"
	"rfly/internal/signal"
)

// Link identifies one of the four self-interference paths of Fig. 3.
type Link int

// The four self-interference links. "InterDownlink" is leakage INTO the
// downlink path (the relayed tag response feeding back), matching the
// paper's Fig. 9 captions.
const (
	InterDownlink Link = iota // uplink output → downlink input
	InterUplink               // downlink output (relayed query) → uplink input
	IntraDownlink             // downlink output → downlink input
	IntraUplink               // uplink output → uplink input
)

// String implements fmt.Stringer.
func (l Link) String() string {
	switch l {
	case InterDownlink:
		return "inter-downlink"
	case InterUplink:
		return "inter-uplink"
	case IntraDownlink:
		return "intra-downlink"
	case IntraUplink:
		return "intra-uplink"
	default:
		return fmt.Sprintf("link(%d)", int(l))
	}
}

// probeSamples is the capture length for isolation measurements: the
// first quarter (the filter transient) is skipped, and the power of the
// remaining 12,288 samples is the leaked output power.
const probeSamples = 16384

// MeasureIsolation reproduces the §7.1(a) experiment for one link: inject
// a probe tone at the frequency where that link's leakage lands, attenuated
// by the antenna port coupling, run it through the victim forwarding path,
// and report the isolation as attenuation plus gain (the paper's
// definition, which factors the programmed gain out).
//
// Probe placement per the paper: queries are emulated 50 kHz from the
// carrier, tag responses 500 kHz from the carrier. trial jitters the probe
// offset and adds measurement noise, so repeated calls trace out the
// Fig. 9 CDFs.
func (r *Relay) MeasureIsolation(link Link, trial *rng.Source) (float64, error) {
	if !r.locked {
		r.Lock(0)
	}
	fs := r.Cfg.Fs
	fA := r.readerFreq
	fB := fA + r.Cfg.ShiftHz
	jitter := trial.Uniform(-5e3, 5e3)

	var probeFreq float64
	var victim func(dst, x []complex128, startSample int) error
	var gainDB float64
	switch link {
	case InterDownlink:
		// The uplink's output (a relayed tag response near fA ± 500 kHz)
		// leaks into the downlink input.
		probeFreq = fA + 500e3 + jitter
		victim, gainDB = r.forwardDownlinkInto, r.DownlinkGainDB()
	case InterUplink:
		// The downlink's output (the relayed query near fB) leaks into the
		// uplink input.
		probeFreq = fB + 50e3 + jitter
		victim, gainDB = r.forwardUplinkInto, r.UplinkGainDB()
	case IntraDownlink:
		// The downlink's own output near fB feeds back into its input.
		probeFreq = fB + 50e3 + jitter
		victim, gainDB = r.forwardDownlinkInto, r.DownlinkGainDB()
	case IntraUplink:
		// The uplink's own output near fA ± 500 kHz feeds back into its
		// input.
		probeFreq = fA + 500e3 + jitter
		victim, gainDB = r.forwardUplinkInto, r.UplinkGainDB()
	default:
		return 0, fmt.Errorf("relay: unknown link %d", link)
	}

	// The paper varies the probe power per trial; keep it low enough that
	// the PA stays linear (isolation is a small-signal property).
	probeDBm := trial.Uniform(-20, 0)
	probePower := signal.WattsFromDBm(probeDBm)
	// The probe buffer doubles as the victim's output: the forward reads
	// its input only in the first mix, so one pooled buffer serves both.
	buf := signal.GetIQ(probeSamples)
	defer signal.PutIQ(buf)
	signal.ToneInto(buf, probeFreq, fs, trial.Phase(), math.Sqrt(probePower))
	// Antenna port coupling attenuates the leak before it reaches the
	// victim's input.
	signal.Scale(buf, complex(signal.AmpFromDB(-r.antIsoDB), 0))
	if err := victim(buf, buf, 0); err != nil {
		return 0, err
	}
	// Skip the filter transient, then measure total leaked power.
	skip := len(buf) / 4
	p := signal.Power(buf[skip:])
	if p <= 0 {
		return math.Inf(1), nil
	}
	// Isolation = input-to-output attenuation + path gain (§7.1).
	iso := signal.DB(probePower/p) + gainDB
	// Spectrum-analyzer measurement jitter.
	iso += trial.Gaussian(0, r.Cfg.ProbeJitterDB)
	return iso, nil
}

// IsolationReport holds one trial's four measured isolations.
type IsolationReport struct {
	InterDownlinkDB float64
	InterUplinkDB   float64
	IntraDownlinkDB float64
	IntraUplinkDB   float64
}

// MeasureAll measures all four links in one trial.
func (r *Relay) MeasureAll(trial *rng.Source) (IsolationReport, error) {
	var rep IsolationReport
	for _, m := range []struct {
		link Link
		dst  *float64
	}{
		{InterDownlink, &rep.InterDownlinkDB},
		{InterUplink, &rep.InterUplinkDB},
		{IntraDownlink, &rep.IntraDownlinkDB},
		{IntraUplink, &rep.IntraUplinkDB},
	} {
		iso, err := r.MeasureIsolation(m.link, trial)
		if err != nil {
			return IsolationReport{}, err
		}
		*m.dst = iso
	}
	return rep, nil
}

// Min returns the weakest of the four isolations, which bounds the
// relay's stable gain and therefore its range (Eq. 3/4).
func (rep IsolationReport) Min() float64 {
	return math.Min(math.Min(rep.InterDownlinkDB, rep.InterUplinkDB),
		math.Min(rep.IntraDownlinkDB, rep.IntraUplinkDB))
}

// AnalogRelay is the Fig. 9 baseline: a classical amplify-and-forward
// relay whose only isolation is antenna separation and polarization. It
// has no filters and no frequency shift, so every leak arrives in-band.
type AnalogRelay struct {
	// SeparationIsoDB and PolarizationIsoDB compose the port coupling.
	SeparationIsoDB   float64
	PolarizationIsoDB float64
	src               *rng.Source
}

// NewAnalogRelay returns the baseline with the paper's geometry: antennas
// spaced 10 cm apart (≈30 dB at 915 MHz) plus cross-polarization
// (≈12 dB).
func NewAnalogRelay(src *rng.Source) *AnalogRelay {
	build := src.Split("analog-build")
	return &AnalogRelay{
		SeparationIsoDB:   build.Gaussian(30, 4),
		PolarizationIsoDB: build.Gaussian(12, 4),
		src:               src,
	}
}

// MeasureIsolation returns the baseline's isolation for any link: antenna
// coupling only, with trial-to-trial variation from orientation and
// frequency. All four links measure the same mechanism, matching the flat
// "Analog Relay" curves of Fig. 9. The error return mirrors
// Relay.MeasureIsolation so the two can stand in for each other in
// sweeps; the baseline itself cannot fail.
func (a *AnalogRelay) MeasureIsolation(_ Link, trial *rng.Source) (float64, error) {
	return a.SeparationIsoDB + a.PolarizationIsoDB + trial.Gaussian(0, 5), nil
}

// MaxStableRangeM evaluates Eq. 4: the largest reader–relay distance at
// which the relay does not self-oscillate, R = (λ/4π)·10^{I/20}, for
// isolation I dB at wavelength λ = c/f.
func MaxStableRangeM(isolationDB, freqHz float64) float64 {
	lambda := signal.C / freqHz
	return lambda / (4 * math.Pi) * math.Pow(10, isolationDB/20)
}

// RequiredIsolationDB inverts Eq. 4: the isolation needed to operate at
// range R meters.
func RequiredIsolationDB(rangeM, freqHz float64) float64 {
	lambda := signal.C / freqHz
	return 20 * math.Log10(4*math.Pi*rangeM/lambda)
}

// GainPlan is the outcome of the §6.1 gain-programming procedure.
type GainPlan struct {
	DownVGADB float64
	UpVGADB   float64
	// DownlinkGainDB/UplinkGainDB are the resulting total path gains.
	DownlinkGainDB float64
	UplinkGainDB   float64
	// Stable reports whether all loop-gain constraints hold with margin.
	Stable bool
}

// ProgramGains sets the relay's VGAs to maximize downlink gain subject to
// the §6.1 stability constraints against the measured isolations:
//
//  1. each path's gain stays below its intra-link isolation − margin;
//  2. the sum of both path gains stays below the inter-link loop
//     isolation − margin;
//  3. the downlink is maximized first (it limits tag power-up), then the
//     uplink takes what remains.
func (r *Relay) ProgramGains(iso IsolationReport) GainPlan {
	m := r.Cfg.StabilityMarginDB
	fixedDown := r.Cfg.DriveGainDB + r.Cfg.PAGainDB

	downMax := math.Min(iso.IntraDownlinkDB-m-fixedDown, r.Cfg.DownVGAMaxDB)
	downVGA := r.DownVGA.SetGainDB(downMax)
	downTotal := downVGA + fixedDown

	loopBudget := iso.InterDownlinkDB + iso.InterUplinkDB - m
	upMax := math.Min(iso.IntraUplinkDB-m, loopBudget-downTotal)
	upMax = math.Min(upMax, r.Cfg.UpVGAMaxDB)
	upVGA := r.UpVGA.SetGainDB(upMax)

	plan := GainPlan{
		DownVGADB:      downVGA,
		UpVGADB:        upVGA,
		DownlinkGainDB: downTotal,
		UplinkGainDB:   upVGA,
	}
	plan.Stable = downTotal <= iso.IntraDownlinkDB-m+1e-9 &&
		upVGA <= iso.IntraUplinkDB-m+1e-9 &&
		downTotal+upVGA <= loopBudget+1e-9
	return plan
}

// InstallGains programs both VGAs to a known plan's settings without
// deriving it again — how a sortie installs the plan its mission carries
// instead of re-measuring isolation.
func (r *Relay) InstallGains(plan GainPlan) {
	r.DownVGA.SetGainDB(plan.DownVGADB)
	r.UpVGA.SetGainDB(plan.UpVGADB)
}

// AutoGain retunes the downlink VGA for the measured input power so the
// PA output peaks just below its 1-dB compression point — the §6.1
// "tuned according to the communication range needed" procedure. The
// uplink VGA keeps its plan value. Stability constraints still bind: the
// returned plan never exceeds the isolation-derived caps.
func (r *Relay) AutoGain(iso IsolationReport, inputDBm float64) GainPlan {
	plan := r.ProgramGains(iso)
	// Target output: 1 dB under P1dB keeps the envelope linear.
	target := r.Cfg.PAP1dBm - 1
	needed := target - inputDBm
	if needed < plan.DownlinkGainDB {
		fixed := r.Cfg.DriveGainDB + r.Cfg.PAGainDB
		vga := r.DownVGA.SetGainDB(needed - fixed)
		plan.DownVGADB = vga
		plan.DownlinkGainDB = vga + fixed
	}
	return plan
}
