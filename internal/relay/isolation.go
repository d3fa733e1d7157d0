package relay

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

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

// probe is one link's drawn measurement: the tone injected into the
// victim path, that path resolved, and the path gain the isolation
// factors back in.
type probe struct {
	victim path
	freq   float64 // tone offset from band center, Hz
	phase  float64
	power  float64 // tone power, W
	gainDB float64
}

// drawProbe places a link's probe and draws its offset jitter, power
// and phase from trial, in the order every measurement draws them.
//
// Probe placement per the paper: queries are emulated 50 kHz from the
// carrier, tag responses 500 kHz from the carrier.
func (r *Relay) drawProbe(link Link, trial *rng.Source) (probe, error) {
	fA := r.readerFreq
	fB := fA + r.Cfg.ShiftHz
	jitter := trial.Uniform(-5e3, 5e3)

	var pr probe
	var uplink bool
	switch link {
	case InterDownlink:
		// The uplink's output (a relayed tag response near fA ± 500 kHz)
		// leaks into the downlink input.
		pr.freq = fA + 500e3 + jitter
	case InterUplink:
		// The downlink's output (the relayed query near fB) leaks into the
		// uplink input.
		pr.freq, uplink = fB+50e3+jitter, true
	case IntraDownlink:
		// The downlink's own output near fB feeds back into its input.
		pr.freq = fB + 50e3 + jitter
	case IntraUplink:
		// The uplink's own output near fA ± 500 kHz feeds back into its
		// input.
		pr.freq, uplink = fA+500e3+jitter, true
	default:
		return probe{}, fmt.Errorf("relay: unknown link %d", link)
	}

	// The paper varies the probe power per trial; keep it low enough that
	// the PA stays linear (isolation is a small-signal property).
	pr.power = signal.WattsFromDBm(trial.Uniform(-20, 0))
	pr.phase = trial.Phase()
	var err error
	if pr.victim, err = r.path(uplink); err != nil {
		return probe{}, err
	}
	pr.gainDB = pr.victim.amps.chain().GainDB()
	return pr, nil
}

// input writes the victim's baseband input at probe samples
// start … start+len(dst)−1: the tone attenuated by the antenna port
// coupling, then down-mixed, with zeros outside the probe.
func (pr *probe) input(dst []complex128, start int, fs float64, coupling complex128) {
	lo := min(max(-start, 0), len(dst))
	hi := max(min(probeSamples-start, len(dst)), lo)
	signal.ZeroIQ(dst[:lo])
	signal.ZeroIQ(dst[hi:])
	v := dst[lo:hi]
	signal.ToneAtInto(v, pr.freq, fs, pr.phase, math.Sqrt(pr.power), start+lo)
	signal.Scale(v, coupling)
	pr.victim.down.MixDownInto(v, v, fs, start+lo)
}

// leakedPower runs a probe through its victim path and returns the mean
// power of output samples probeSamples/4 … probeSamples−1: the same
// bits as forwarding the whole probe and taking signal.Power past the
// transient, computed as a stream of blocks on FFT-sized scratch.
//
// Blocks follow the victim filter's own ApplyInto partition (overlap-save
// blocks of hop outputs, or the direct form when the filter is too short
// for the FFT path), starting at the block that holds sample
// probeSamples/4, so the transient's blocks are never computed. Each
// block keeps the previous inputs the filter and the feed-through floor
// reach back to, adds the floor, amplifies, up-mixes, and adds its
// output energy in ascending sample order.
func (r *Relay) leakedPower(pr *probe) float64 {
	const skip = probeSamples / 4
	fs := r.Cfg.Fs
	filter := pr.victim.filter
	m := len(filter.Taps)
	n, hop := filter.OverlapSaveSize()
	fft := filter.TakesFFTPath(probeSamples)
	hist := max(m, len(r.floorHPF.Taps)) - 1

	// bb holds the victim's inputs pos−hist … pos+hop−1 of the block
	// whose outputs start at pos.
	bb := signal.GetIQ(hist + hop)
	defer signal.PutIQ(bb)
	seg := signal.GetIQ(n)
	defer signal.PutIQ(seg)
	leak := signal.GetIQ(hop)
	defer signal.PutIQ(leak)
	var conv signal.OverlapSave
	if fft {
		h := signal.GetIQ(n)
		defer signal.PutIQ(h)
		conv = filter.NewOverlapSave(h)
	}
	coupling := complex(signal.AmpFromDB(-r.antIsoDB), 0)
	chain := pr.victim.amps.chain()

	var sum float64
	fresh := 0 // bb[fresh:] still to be synthesized
	for pos := skip / hop * hop; pos < probeSamples; pos += hop {
		pr.input(bb[fresh:], pos-hist+fresh, fs, coupling)
		cnt := min(hop, probeSamples-pos)
		out := seg[:cnt]
		if fft {
			copy(seg, bb[hist-(m-1):])
			conv.Block(seg)
			out = seg[m-1 : m-1+cnt]
		} else {
			filter.ApplyDirectFrom(out, bb, hist)
		}
		r.floorHPF.ApplyDirectFrom(leak[:cnt], bb, hist)
		addFloor(out, leak, pr.victim.floorDB)
		chain.Apply(out, 0, nil)
		pr.victim.up.MixUpInto(out, out, fs, pos)
		sum = signal.AddEnergy(sum, out[max(skip-pos, 0):])
		copy(bb, bb[hop:])
		fresh = hist
	}
	return sum / (probeSamples - skip)
}

// isolationDB turns a probe's leaked power into the link's isolation:
// input-to-output attenuation plus path gain (the paper's definition,
// which factors the programmed gain out, §7.1), plus the drawn
// spectrum-analyzer measurement noise.
func (pr *probe) isolationDB(p, noise float64) float64 {
	iso := signal.DB(pr.power/p) + pr.gainDB
	return iso + noise
}

// MeasureIsolation reproduces the §7.1(a) experiment for one link: inject
// a probe tone at the frequency where that link's leakage lands, attenuated
// by the antenna port coupling, run it through the victim forwarding path,
// and report the isolation as attenuation plus gain. trial jitters the
// probe offset and adds measurement noise, so repeated calls trace out
// the Fig. 9 CDFs. A link that leaks nothing measures +Inf and draws no
// measurement noise.
func (r *Relay) MeasureIsolation(link Link, trial *rng.Source) (float64, error) {
	if !r.locked {
		r.Lock(0)
	}
	pr, err := r.drawProbe(link, trial)
	if err != nil {
		return 0, err
	}
	p := r.leakedPower(&pr)
	if p <= 0 {
		return math.Inf(1), nil
	}
	return pr.isolationDB(p, trial.Gaussian(0, r.Cfg.ProbeJitterDB)), nil
}

// IsolationReport holds one trial's four measured isolations.
type IsolationReport struct {
	InterDownlinkDB float64
	InterUplinkDB   float64
	IntraDownlinkDB float64
	IntraUplinkDB   float64
}

// links lists the four links in IsolationReport's field order, the order
// MeasureAll draws them.
var links = [4]Link{InterDownlink, InterUplink, IntraDownlink, IntraUplink}

// report builds an IsolationReport from per-link values in links order.
func report(iso [4]float64) IsolationReport {
	return IsolationReport{iso[0], iso[1], iso[2], iso[3]}
}

// measureJob is one MeasureAll fan-out: the four drawn probes, their
// leaked powers, and the lanes' work counter. Jobs are recycled through
// measureJobs, so a measurement allocates only its spawned lanes'
// closures.
type measureJob struct {
	r      *Relay
	probes [4]probe
	power  [4]float64
	next   atomic.Int32
	wg     sync.WaitGroup
}

// measureJobs is the free list of jobs. Its size bounds how many idle
// jobs stay retained: one per measurement that can run at once, which is
// one per node shard flying a first sortie, with room to spare; a job
// returned to a full list is dropped.
var measureJobs = make(chan *measureJob, 8)

// lane measures probes until none are left.
func (j *measureJob) lane() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= len(j.probes) {
			return
		}
		j.power[i] = j.r.leakedPower(&j.probes[i])
	}
}

// run measures every probe on lanes lanes, the caller's goroutine being
// one of them.
func (j *measureJob) run(lanes int) {
	j.next.Store(0)
	j.wg.Add(lanes - 1)
	for range lanes - 1 {
		go func() {
			defer j.wg.Done()
			j.lane()
		}()
	}
	j.lane()
	j.wg.Wait()
}

// MeasureAll measures all four links in one trial, with exactly the
// results and trial draws of four MeasureIsolation calls in links order.
// It draws every link's probe and measurement noise up front in that
// order, then measures the four probes in parallel on
// min(4, GOMAXPROCS) lanes. A link that leaks nothing skips its noise
// draw in the serial order, so then the trial is rewound and the links
// are measured one by one.
func (r *Relay) MeasureAll(trial *rng.Source) (IsolationReport, error) {
	if !r.locked {
		r.Lock(0)
	}
	var j *measureJob
	select {
	case j = <-measureJobs:
	default:
		j = new(measureJob)
	}
	defer func() {
		j.r = nil
		select {
		case measureJobs <- j:
		default:
		}
	}()

	saved := *trial
	var noise [4]float64
	for i, link := range links {
		pr, err := r.drawProbe(link, trial)
		if err != nil {
			return IsolationReport{}, err
		}
		j.probes[i] = pr
		noise[i] = trial.Gaussian(0, r.Cfg.ProbeJitterDB)
	}
	j.r = r
	j.run(min(len(links), runtime.GOMAXPROCS(0)))

	var iso [4]float64
	for i, p := range j.power {
		if p <= 0 {
			*trial = saved
			return r.measureSerial(trial)
		}
		iso[i] = j.probes[i].isolationDB(p, noise[i])
	}
	return report(iso), nil
}

// measureSerial measures the four links one after another.
func (r *Relay) measureSerial(trial *rng.Source) (IsolationReport, error) {
	var iso [4]float64
	for i, link := range links {
		v, err := r.MeasureIsolation(link, trial)
		if err != nil {
			return IsolationReport{}, err
		}
		iso[i] = v
	}
	return report(iso), nil
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
