// Package sim is the RFly experiment engine: it wires a scene, a reader, a
// relay on a mobile platform, and a tag population into a deployment, and
// computes the link budgets, protocol outcomes, and complex channel
// measurements every experiment in the paper's evaluation consumes.
//
// Two fidelity levels coexist:
//
//   - The waveform level (packages reader/relay/tag/epc) is exercised by
//     unit and integration tests to validate each mechanism sample by
//     sample.
//   - The link-budget level in this package runs the large parameter
//     sweeps (hundreds of trials across tens of meters) that regenerate
//     the paper's figures, using the same hardware parameters (gains,
//     isolation draws, PA compression, tag sensitivity) as the waveform
//     level.
package sim

import (
	"fmt"
	"math"
	"math/cmplx"

	"rfly/internal/epc"
	"rfly/internal/fault"
	"rfly/internal/geom"
	"rfly/internal/propagation"
	"rfly/internal/radio"
	"rfly/internal/reader"
	"rfly/internal/relay"
	"rfly/internal/rng"
	"rfly/internal/signal"
	"rfly/internal/tag"
	"rfly/internal/world"
)

// Deployment is one experimental setup.
type Deployment struct {
	Scene *world.Scene
	Model *propagation.Model

	Reader    *reader.Reader
	ReaderPos geom.Point

	// Relay is nil for the no-relay baseline.
	Relay    *relay.Relay
	RelayPos geom.Point
	// RelayPlanPos is the station-keeping target: where the flight plan
	// says the relay should hover. Wind gusts displace RelayPos away from
	// it; StationKeep steers back.
	RelayPlanPos geom.Point
	// Iso and Gains are the relay's measured isolations and programmed
	// gain plan for this deployment: measured at the relay build, or
	// installed from Config.Calibration.
	Iso   relay.IsolationReport
	Gains relay.GainPlan

	// EmbeddedTag is the reference RFID riding on the relay (§5.1). Its
	// channel reduces to the reader→relay half-link.
	EmbeddedTag *tag.Tag

	Tags []*tag.Tag

	// Interferers are other readers in the band (§4.3).
	Interferers []Interferer

	// Jammers are hostile emitters (see world.Jammer); jamTick is the
	// scenario tick their duty cycles are gated against.
	Jammers []world.Jammer
	jamTick int

	// ShadowSigmaDB is log-normal shadowing per link per trial.
	ShadowSigmaDB float64
	// PhaseJitterDeg is the mirrored relay's residual phase error (§7.1b:
	// median 0.34°).
	PhaseJitterDeg float64

	src    *rng.Source
	shadow *rng.Source
	// Fault-injection state (see fault.go): relay battery dead, reader
	// carrier hopped away from the relay's lock, and per-event bookkeeping
	// for revertible faults.
	relayOff    bool
	readerHopHz float64
	faultDroop  map[fault.Event]float64
	faultIntf   map[fault.Event]Interferer
	faultJam    map[fault.Event]world.Jammer
	// wasPowered tracks per-tag power state between Send calls so that a
	// powered→unpowered transition triggers the chip's brown-out reset
	// (PowerCycle: S0 flag and state machine clear, §6.3.2.2).
	wasPowered map[*tag.Tag]bool
}

// Config assembles a deployment.
type Config struct {
	Scene         *world.Scene
	Freq          float64 // reader carrier (Hz)
	ReaderPos     geom.Point
	UseRelay      bool
	RelayCfg      relay.Config // zero value → relay.DefaultConfig
	RelayPos      geom.Point
	ShadowSigmaDB float64
	// ExtraPathLossExp adds indoor clutter loss beyond free space.
	ExtraPathLossExp float64
	// GroundReflectivity enables the floor-bounce multipath path.
	GroundReflectivity float64
	// Calibration, when set, is the relay's known isolation and gain
	// plan: New installs it instead of measuring the relay again.
	Calibration *Calibration
}

// Calibration is a relay's measured self-interference isolation and the
// gain plan programmed against it.
type Calibration struct {
	Iso   relay.IsolationReport
	Gains relay.GainPlan
}

// New builds a deployment from cfg, drawing all randomness from seed.
func New(cfg Config, seed uint64) *Deployment {
	src := rng.New(seed)
	if cfg.Freq == 0 {
		cfg.Freq = 915e6
	}
	model := propagation.NewModel(cfg.Scene, cfg.Freq)
	model.PathLossExponentExtra = cfg.ExtraPathLossExp
	model.GroundReflectivity = cfg.GroundReflectivity
	d := &Deployment{
		Scene:          cfg.Scene,
		Model:          model,
		Reader:         reader.New(reader.DefaultConfig(), src.Split("reader")),
		ReaderPos:      cfg.ReaderPos,
		ShadowSigmaDB:  cfg.ShadowSigmaDB,
		PhaseJitterDeg: 0.34,
		src:            src,
		shadow:         src.Split("shadowing"),
		wasPowered:     map[*tag.Tag]bool{},
	}
	if cfg.UseRelay {
		rl := relay.New(cfg.RelayCfg, src.Split("relay"))
		rl.Lock(0)
		d.Relay = rl
		d.RelayPos = cfg.RelayPos
		d.RelayPlanPos = cfg.RelayPos
		if cal := cfg.Calibration; cal != nil {
			d.Iso, d.Gains = cal.Iso, cal.Gains
			rl.InstallGains(d.Gains)
		} else if iso, err := rl.MeasureAll(src.Split("iso-trial")); err == nil {
			// MeasureAll cannot fail here (the relay was locked above);
			// if it somehow does, the relay is left with a dead
			// (unstable) gain plan rather than crashing the build.
			d.Iso = iso
			d.Gains = rl.ProgramGains(d.Iso)
		}
		d.EmbeddedTag = tag.New(
			epc.NewEPC96(0xFEED, 0xFEED, 0xFEED, 0xFEED, 0xFEED, 0xFEED),
			cfg.RelayPos, tag.DefaultConfig(), src.Split("embedded-tag"))
	}
	return d
}

// Stream returns a named deterministic split of the deployment's root
// RNG stream. Splitting never consumes parent state (see rng.Split), so
// a new consumer — the swarm coordinator building its fleet members —
// cannot perturb any draw the deployment itself makes.
func (d *Deployment) Stream(name string) *rng.Source { return d.src.Split(name) }

// AddTag places a tag in the scene and returns it.
func (d *Deployment) AddTag(e epc.EPC, pos geom.Point) *tag.Tag {
	t := tag.New(e, pos, tag.DefaultConfig(), d.src.Split("tag-"+e.String()))
	d.Tags = append(d.Tags, t)
	return t
}

// MoveRelay repositions the relay (and its embedded tag) along a flight.
func (d *Deployment) MoveRelay(p geom.Point) {
	d.RelayPos = p
	d.RelayPlanPos = p
	if d.EmbeddedTag != nil {
		d.EmbeddedTag.Pos = p
	}
}

// shadowDB draws one link's shadowing term.
func (d *Deployment) shadowDB() float64 {
	if d.ShadowSigmaDB <= 0 {
		return 0
	}
	return d.shadow.LogNormalDB(d.ShadowSigmaDB)
}

// Budget is the link-budget outcome for one tag at the current geometry.
type Budget struct {
	// TagRxDBm is the power delivered to the tag on the downlink.
	TagRxDBm float64
	// Powered reports whether the tag wakes up (≥ −15 dBm + depth).
	Powered bool
	// ReaderRxDBm is the backscatter power arriving back at the reader.
	ReaderRxDBm float64
	// SNRdB is the end-to-end post-integration SNR at the reader
	// (combining the relay-input and reader-input noise contributions
	// when a relay forwards).
	SNRdB float64
	// RelayStable is false when the relay would self-oscillate (Eq. 3) or
	// its gain plan is infeasible; everything fails then.
	RelayStable bool
	// ViaRelay records which path served the tag.
	ViaRelay bool
}

// backscatterLossDB converts the tag's modulated reflection coefficient to
// a power loss: reflected modulated power = incident × (coeff/2)².
func backscatterLossDB(coeff float64) float64 {
	return -20 * math.Log10(coeff/2)
}

// LinkBudget computes the delivered power and SNR for one tag, through the
// relay when present and stable, else directly from the reader.
func (d *Deployment) LinkBudget(t *tag.Tag) Budget {
	var b Budget
	if d.Relay == nil {
		b = d.directBudget(t)
	} else {
		if !d.RelayLockOK() || !d.RelayLockHealthy() {
			// The relay locked onto a stronger interfering reader (§4.3),
			// lost power, lost its lock, or is locked to a carrier the
			// reader is no longer on: our reader's traffic is filtered out
			// entirely until the watchdog re-acquires.
			b.ViaRelay = true
			b.RelayStable = d.Gains.Stable
			b.TagRxDBm = math.Inf(-1)
			b.ReaderRxDBm = math.Inf(-1)
			b.SNRdB = math.Inf(-1)
			return b
		}
		b = d.relayBudget(t)
		b.SNRdB -= d.cfoPenaltyDB()
	}
	return d.applyInterference(b)
}

func (d *Deployment) directBudget(t *tag.Tag) Budget {
	var b Budget
	b.RelayStable = true
	rcfg := d.Reader.Cfg
	down := d.Model.ReceivedPowerDBm(d.ReaderPos, t.Pos, rcfg.TxPowerDBm,
		rcfg.AntennaGainDB, 0) + d.shadowDB() - t.OrientationLossDB(d.ReaderPos)
	b.TagRxDBm = down
	b.Powered = t.PoweredBy(down, rcfg.PIE.Depth)
	if !b.Powered {
		b.ReaderRxDBm = math.Inf(-1)
		b.SNRdB = math.Inf(-1)
		return b
	}
	up := down - backscatterLossDB(t.Cfg.BackscatterCoeff) - t.OrientationLossDB(d.ReaderPos)
	b.ReaderRxDBm = up + d.Model.ReceivedPowerDBm(t.Pos, d.ReaderPos, 0, 0, rcfg.AntennaGainDB) +
		d.shadowDB()
	b.SNRdB = reader.LinkSNRdB(b.ReaderRxDBm, rcfg.NoiseFigureDB, rcfg.PIE.BLF())
	return b
}

func (d *Deployment) relayBudget(t *tag.Tag) Budget {
	var b Budget
	b.ViaRelay = true
	rcfg := d.Reader.Cfg

	// Reader → relay (carrier f).
	toRelayDBm := d.Model.ReceivedPowerDBm(d.ReaderPos, d.RelayPos, rcfg.TxPowerDBm,
		rcfg.AntennaGainDB, 2) + d.shadowDB()

	// Stability: Eq. 3 — the loop cannot regenerate. The downlink loop is
	// bounded by its intra-link isolation; the cross loop by the sum of the
	// inter-link isolations.
	b.RelayStable = d.Gains.Stable &&
		d.Gains.DownlinkGainDB < d.Iso.IntraDownlinkDB &&
		d.Gains.UplinkGainDB < d.Iso.IntraUplinkDB &&
		d.Gains.DownlinkGainDB+d.Gains.UplinkGainDB < d.Iso.InterDownlinkDB+d.Iso.InterUplinkDB
	if !b.RelayStable {
		b.TagRxDBm = math.Inf(-1)
		b.ReaderRxDBm = math.Inf(-1)
		b.SNRdB = math.Inf(-1)
		return b
	}

	// Downlink: relay re-amplifies and the PA compresses the output.
	relayInW := signal.WattsFromDBm(toRelayDBm)
	relayOutDBm := signal.DBm(compressedOut(relayInW, d.Gains.DownlinkGainDB, d.Relay.Cfg.PAP1dBm))
	f2 := d.Model.Freq + d.Relay.Cfg.ShiftHz
	tagRx := relayOutDBm + chanGainDB(d.Model, d.RelayPos, t.Pos, f2, 2, 0) +
		d.shadowDB() - t.OrientationLossDB(d.RelayPos)
	b.TagRxDBm = tagRx
	b.Powered = t.PoweredBy(tagRx, rcfg.PIE.Depth)
	if !b.Powered {
		b.ReaderRxDBm = math.Inf(-1)
		b.SNRdB = math.Inf(-1)
		return b
	}

	// Uplink: tag backscatter → relay → reader (the dipole pattern
	// applies again on re-radiation).
	bsAtTag := tagRx - backscatterLossDB(t.Cfg.BackscatterCoeff) - t.OrientationLossDB(d.RelayPos)
	atRelay := bsAtTag + chanGainDB(d.Model, t.Pos, d.RelayPos, f2, 0, 2) + d.shadowDB()
	// SNR limit 1: the relay's own receive noise.
	snrRelay := reader.LinkSNRdB(atRelay, d.Relay.Cfg.NoiseFigureDB, rcfg.PIE.BLF())
	atReader := atRelay + d.Gains.UplinkGainDB +
		chanGainDB(d.Model, d.RelayPos, d.ReaderPos, d.Model.Freq, 2, rcfg.AntennaGainDB) + d.shadowDB()
	b.ReaderRxDBm = atReader
	// SNR limit 2: the reader's receive noise.
	snrReader := reader.LinkSNRdB(atReader, rcfg.NoiseFigureDB, rcfg.PIE.BLF())
	b.SNRdB = combineSNRdB(snrRelay, snrReader)
	return b
}

// chanGainDB returns the coherent multipath channel gain in dB for a link
// at carrier f including antenna gains.
func chanGainDB(m *propagation.Model, a, b geom.Point, f, gA, gB float64) float64 {
	h := m.OneWay(a, b, f, gA, gB)
	mag := cmplx.Abs(h)
	if mag <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(mag)
}

// compressedOut applies a gain then the PA's Rapp compression.
func compressedOut(inW, gainDB, p1dBm float64) float64 {
	amp := radio.Amplifier{GainDB: gainDB, P1dBm: p1dBm, HasP1dB: true}
	return amp.OutputPower(inW)
}

// combineSNRdB combines two cascaded SNR limits: 1/SNR = 1/S1 + 1/S2.
func combineSNRdB(s1, s2 float64) float64 {
	if math.IsInf(s1, -1) || math.IsInf(s2, -1) {
		return math.Inf(-1)
	}
	l1, l2 := signal.FromDB(s1), signal.FromDB(s2)
	return signal.DB(1 / (1/l1 + 1/l2))
}

// Send implements reader.Medium at the current geometry: deliver cmd to
// every powered tag (including the embedded tag, which the relay always
// powers), collect replies, and attach channels and SNRs. Unpowered tags
// are silent; the MAC sees collisions as multiple observations.
func (d *Deployment) Send(cmd epc.Command) []reader.Observation {
	var obs []reader.Observation
	for _, t := range d.Tags {
		bud := d.LinkBudget(t)
		if !bud.Powered {
			if d.wasPowered[t] {
				t.PowerCycle()
				d.wasPowered[t] = false
			}
			continue
		}
		d.wasPowered[t] = true
		rep := t.Handle(cmd)
		if rep == nil {
			continue
		}
		h, _ := d.channelTo(t, bud.SNRdB)
		obs = append(obs, reader.Observation{Tag: t, Reply: rep, H: h, SNRdB: bud.SNRdB})
	}
	if d.EmbeddedTag != nil {
		// The embedded tag is powered by the relay whenever the relay has
		// power; its reply reaches the reader iff the reader↔relay link is
		// alive.
		bud := d.embeddedBudget()
		if bud.Powered {
			if rep := d.EmbeddedTag.Handle(cmd); rep != nil {
				h, _ := d.embeddedChannel(bud.SNRdB)
				obs = append(obs, reader.Observation{Tag: d.EmbeddedTag, Reply: rep, H: h, SNRdB: bud.SNRdB})
			}
		}
	}
	return obs
}

// embeddedBudget computes the reader↔relay round trip for the embedded
// tag, which the relay itself powers at point-blank range.
func (d *Deployment) embeddedBudget() Budget {
	var b Budget
	if d.Relay == nil {
		return b
	}
	rcfg := d.Reader.Cfg
	b.ViaRelay = true
	b.RelayStable = d.Gains.Stable
	if !b.RelayStable || !d.RelayLockHealthy() {
		return b
	}
	toRelayDBm := d.Model.ReceivedPowerDBm(d.ReaderPos, d.RelayPos, rcfg.TxPowerDBm,
		rcfg.AntennaGainDB, 2) + d.shadowDB()
	// Relay → embedded tag is centimeters: treat as lossless coupling at
	// the relay's (compressed) output.
	relayOutDBm := signal.DBm(compressedOut(signal.WattsFromDBm(toRelayDBm),
		d.Gains.DownlinkGainDB, d.Relay.Cfg.PAP1dBm))
	b.TagRxDBm = relayOutDBm - 20 // short-range coupling pad
	b.Powered = d.EmbeddedTag.PoweredBy(b.TagRxDBm, rcfg.PIE.Depth)
	if !b.Powered {
		return b
	}
	bs := b.TagRxDBm - backscatterLossDB(d.EmbeddedTag.Cfg.BackscatterCoeff) - 20
	atReader := bs + d.Gains.UplinkGainDB +
		chanGainDB(d.Model, d.RelayPos, d.ReaderPos, d.Model.Freq, 2, rcfg.AntennaGainDB) + d.shadowDB()
	b.ReaderRxDBm = atReader
	b.SNRdB = reader.LinkSNRdB(atReader, rcfg.NoiseFigureDB, rcfg.PIE.BLF()) - d.cfoPenaltyDB()
	return b
}

// channelTo returns the complex end-to-end channel estimate for a tag at
// the current geometry, corrupted by estimation noise at the given SNR
// and by the relay's residual (mirrored) or random (no-mirror) phase.
func (d *Deployment) channelTo(t *tag.Tag, snrDB float64) (complex128, error) {
	f := d.Model.Freq
	coeff := t.Cfg.BackscatterCoeff / 2
	var h complex128
	if d.Relay == nil {
		down := d.Model.OneWay(d.ReaderPos, t.Pos, f, d.Reader.Cfg.AntennaGainDB, 0)
		up := d.Model.OneWay(t.Pos, d.ReaderPos, f, 0, d.Reader.Cfg.AntennaGainDB)
		h = down * up * complex(coeff, 0)
	} else {
		f2 := f + d.Relay.Cfg.ShiftHz
		hrr := d.Model.OneWay(d.ReaderPos, d.RelayPos, f, d.Reader.Cfg.AntennaGainDB, 2)
		hrt := d.Model.OneWay(d.RelayPos, t.Pos, f2, 2, 0)
		htr := d.Model.OneWay(t.Pos, d.RelayPos, f2, 0, 2)
		hG := complex(signal.AmpFromDB((d.Gains.DownlinkGainDB+d.Gains.UplinkGainDB)/2), 0)
		h = hrr * hrr * hrt * htr * complex(coeff, 0) * hG
		h *= d.relayPhaseTerm()
		h *= d.cfoPhaseTerm()
	}
	return d.noisyChannel(h, snrDB), nil
}

// embeddedChannel returns the embedded tag's channel: the reader→relay
// half-link squared (Eq. 10's denominator) times the hardware constant.
func (d *Deployment) embeddedChannel(snrDB float64) (complex128, error) {
	f := d.Model.Freq
	hrr := d.Model.OneWay(d.ReaderPos, d.RelayPos, f, d.Reader.Cfg.AntennaGainDB, 2)
	coeff := d.EmbeddedTag.Cfg.BackscatterCoeff / 2
	hG := complex(signal.AmpFromDB((d.Gains.DownlinkGainDB+d.Gains.UplinkGainDB)/2), 0)
	h := hrr * hrr * complex(coeff*0.01, 0) * hG // 0.01: short-coupling constant
	h *= d.relayPhaseTerm()
	h *= d.cfoPhaseTerm()
	return d.noisyChannel(h, snrDB), nil
}

// relayPhaseTerm returns the phase distortion the relay adds to a full
// down+up traversal: a tiny residual for the mirrored architecture, a
// uniformly random rotation for the no-mirror baseline (Eq. 6 uncancelled).
func (d *Deployment) relayPhaseTerm() complex128 {
	if d.Relay.Cfg.Mirrored {
		jit := d.src.Gaussian(0, d.PhaseJitterDeg*math.Pi/180)
		return cmplx.Rect(1, jit)
	}
	return cmplx.Rect(1, d.src.Phase())
}

// noisyChannel adds circular estimation noise at the given SNR.
func (d *Deployment) noisyChannel(h complex128, snrDB float64) complex128 {
	if math.IsInf(snrDB, 1) {
		return h
	}
	mag := cmplx.Abs(h)
	if mag == 0 {
		return h
	}
	sigma := mag / math.Sqrt(signal.FromDB(snrDB)) / math.Sqrt2
	return h + d.src.ComplexCircular(sigma)
}

// String summarizes the deployment.
func (d *Deployment) String() string {
	mode := "no-relay"
	if d.Relay != nil {
		mode = fmt.Sprintf("relay@%v", d.RelayPos)
	}
	return fmt.Sprintf("deployment[%s, reader@%v, %d tags, %s]",
		d.Scene.Name, d.ReaderPos, len(d.Tags), mode)
}
