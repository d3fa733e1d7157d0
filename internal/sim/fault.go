package sim

import (
	"context"
	"fmt"
	"math"

	"rfly/internal/fault"
	"rfly/internal/geom"
	"rfly/internal/world"
)

// Fault-injection hooks: Deployment implements fault.Target, mapping each
// fault class onto the live link-budget state. The semantics split into
// two families (documented per class in package fault):
//
//   - revertible — the event models an external CAUSE that goes away when
//     the event window closes (wind gust, VGA thermal droop, a bursty
//     interferer): RevertFault undoes the perturbation.
//   - persistent — the event models DAMAGE that outlives its cause (LO
//     drift stays in the PLLs, a bent antenna stays bent, a hopped reader
//     stays on its new channel, a sagged battery stays flat): RevertFault
//     is a no-op and only the recovery machinery (watchdog re-lock, gain
//     reprogramming, mission battery swap) can restore service.
const (
	// synthDriftFullHz is the severity-1.0 LO step: well past the 150 kHz
	// LPF cutoff, so a full-severity drift takes the relay dark until the
	// watchdog re-locks (severities below ~0.6 degrade SNR instead).
	synthDriftFullHz = 250e3
	// gainDroopFullDB is the severity-1.0 uplink VGA droop. 18 dB knocks
	// marginal tags below the decode threshold without unpowering them —
	// exactly the regime MAC retries recover.
	gainDroopFullDB = 18
	// isoCollapseFullDB is the severity-1.0 antenna isolation loss (a
	// snagged/bent isolation barrier). The §6.1 stability margin is 10 dB,
	// so collapses past ~margin make the old gain plan violate Eq. 3.
	isoCollapseFullDB = 25
	// gustFullM is the severity-1.0 horizontal displacement of the relay
	// from its station-keeping target.
	gustFullM = 3.0
	// carrierHopDefaultHz is the reader's hop distance when the event does
	// not specify one: one 500 kHz channel, far outside the LPF.
	carrierHopDefaultHz = 500e3
	// burstBaseTxDBm anchors the burst interferer's transmit power at
	// severity 0 (severity adds up to 15 dB). The interferer sits 2 m from
	// the reader, co-channel, but far from the relay — so the relay keeps
	// its lock and only the reader-side SINR suffers.
	burstBaseTxDBm = -38
	burstSevTxDB   = 15
	// jamBaseTxDBm anchors the injected jammer's transmit power at
	// severity 0 (severity adds up to 40 dB). The jammer parks on the
	// reader↔relay midpoint, barrage unless the event's Param narrows it,
	// so full severity both drowns the reader-side SINR and threatens the
	// relay's carrier lock.
	jamBaseTxDBm = -30
	jamSevTxDB   = 40
)

// ApplyFault implements fault.Target: perturb the live deployment state
// for one event. Relay-directed classes error when the deployment has no
// relay.
func (d *Deployment) ApplyFault(ev fault.Event) error {
	switch ev.Class {
	case fault.SynthDrift:
		if d.Relay == nil {
			return fmt.Errorf("sim: %v fault needs a relay", ev.Class)
		}
		hz := ev.Param
		if hz == 0 {
			hz = ev.Severity * synthDriftFullHz
		}
		d.Relay.ApplyCFO(hz)
	case fault.GainDroop:
		if d.Relay == nil {
			return fmt.Errorf("sim: %v fault needs a relay", ev.Class)
		}
		droop := ev.Param
		if droop == 0 {
			droop = ev.Severity * gainDroopFullDB
		}
		d.Gains.UplinkGainDB -= droop
		if d.faultDroop == nil {
			d.faultDroop = map[fault.Event]float64{}
		}
		d.faultDroop[ev] = droop
	case fault.IsolationCollapse:
		if d.Relay == nil {
			return fmt.Errorf("sim: %v fault needs a relay", ev.Class)
		}
		drop := ev.Severity * isoCollapseFullDB
		d.Relay.SetAntennaIsolationDB(d.Relay.AntennaIsolationDB() - drop)
		d.Iso.InterDownlinkDB -= drop
		d.Iso.InterUplinkDB -= drop
		d.Iso.IntraDownlinkDB -= drop
		d.Iso.IntraUplinkDB -= drop
	case fault.BatterySag:
		if d.Relay == nil {
			return fmt.Errorf("sim: %v fault needs a relay", ev.Class)
		}
		d.SetRelayPowered(false)
	case fault.WindGust:
		if d.Relay == nil {
			return fmt.Errorf("sim: %v fault needs a relay", ev.Class)
		}
		disp := ev.Severity * gustFullM
		d.displaceRelay(geom.Vec{
			X: disp * math.Cos(ev.Param),
			Y: disp * math.Sin(ev.Param),
		})
	case fault.CarrierHop:
		hop := ev.Param
		if hop == 0 {
			hop = carrierHopDefaultHz
		}
		d.readerHopHz = hop
	case fault.BurstInterference:
		tx := burstBaseTxDBm + ev.Severity*burstSevTxDB
		if ev.Param != 0 {
			tx = ev.Param
		}
		intf := Interferer{
			Pos:        geom.P(d.ReaderPos.X+2, d.ReaderPos.Y+0.5, d.ReaderPos.Z),
			TxPowerDBm: tx,
			FreqOffset: 0,
		}
		if d.faultIntf == nil {
			d.faultIntf = map[fault.Event]Interferer{}
		}
		d.faultIntf[ev] = intf
		d.AddInterferer(intf)
	case fault.Jamming:
		pos := geom.P(d.ReaderPos.X+3, d.ReaderPos.Y+1, d.ReaderPos.Z)
		if d.Relay != nil {
			pos = geom.P((d.ReaderPos.X+d.RelayPlanPos.X)/2,
				(d.ReaderPos.Y+d.RelayPlanPos.Y)/2, d.ReaderPos.Z)
		}
		area := int(ev.Param)
		if area < 0 || area > world.NumBandAreas {
			area = 0
		}
		jam := world.Jammer{
			Pos:           pos,
			TxPowerDBm:    jamBaseTxDBm + ev.Severity*jamSevTxDB,
			AntennaGainDB: 2,
			BandArea:      area,
			DutyCycle:     1,
			PeriodTicks:   1,
		}
		if err := d.AddJammerCtx(context.Background(), jam); err != nil {
			return err
		}
		if d.faultJam == nil {
			d.faultJam = map[fault.Event]world.Jammer{}
		}
		d.faultJam[ev] = jam
	case fault.RelayDeath, fault.RelayBrownOut, fault.MeshPartition:
		// Swarm-directed classes target a fleet, not a single deployment:
		// with nothing to fail over to, a lone relay cannot absorb them.
		return fmt.Errorf("sim: %v fault needs a swarm coordinator", ev.Class)
	default:
		return fmt.Errorf("sim: unknown fault class %v", ev.Class)
	}
	return nil
}

// RevertFault implements fault.Target: remove the event's external cause.
// Persistent classes (synth-drift, isolation-collapse, carrier-hop,
// battery-sag) deliberately do nothing here — their damage outlives the
// event window and only recovery heals it.
func (d *Deployment) RevertFault(ev fault.Event) error {
	switch ev.Class {
	case fault.GainDroop:
		if droop, ok := d.faultDroop[ev]; ok {
			d.Gains.UplinkGainDB += droop
			delete(d.faultDroop, ev)
		}
	case fault.WindGust:
		// The gust stops pushing; an un-steered drone drifts back to its
		// hover target on its own controller.
		d.RelayPos = d.RelayPlanPos
		if d.EmbeddedTag != nil {
			d.EmbeddedTag.Pos = d.RelayPos
		}
	case fault.BurstInterference:
		intf, ok := d.faultIntf[ev]
		if !ok {
			return nil
		}
		delete(d.faultIntf, ev)
		for i, x := range d.Interferers {
			if x == intf {
				d.Interferers = append(d.Interferers[:i], d.Interferers[i+1:]...)
				break
			}
		}
	case fault.Jamming:
		jam, ok := d.faultJam[ev]
		if !ok {
			return nil
		}
		delete(d.faultJam, ev)
		d.RemoveJammer(jam)
	case fault.SynthDrift, fault.IsolationCollapse, fault.BatterySag, fault.CarrierHop:
		// persistent damage: no-op
	case fault.RelayDeath, fault.RelayBrownOut, fault.MeshPartition:
		// Apply already rejected these; nothing to undo.
	default:
		return fmt.Errorf("sim: unknown fault class %v", ev.Class)
	}
	return nil
}

// displaceRelay moves the relay off its plan position WITHOUT updating the
// station-keeping target (unlike MoveRelay, which is a deliberate
// repositioning).
func (d *Deployment) displaceRelay(v geom.Vec) {
	d.RelayPos = geom.P(d.RelayPos.X+v.X, d.RelayPos.Y+v.Y, d.RelayPos.Z+v.Z)
	if d.EmbeddedTag != nil {
		d.EmbeddedTag.Pos = d.RelayPos
	}
}

// StationKeep steers the relay back toward its plan position by at most
// stepM meters (the drone controller's per-tick authority) and returns the
// remaining offset distance.
func (d *Deployment) StationKeep(stepM float64) float64 {
	dx := d.RelayPlanPos.X - d.RelayPos.X
	dy := d.RelayPlanPos.Y - d.RelayPos.Y
	dz := d.RelayPlanPos.Z - d.RelayPos.Z
	dist := math.Sqrt(dx*dx + dy*dy + dz*dz)
	if dist <= stepM {
		d.RelayPos = d.RelayPlanPos
	} else {
		f := stepM / dist
		d.RelayPos = geom.P(d.RelayPos.X+dx*f, d.RelayPos.Y+dy*f, d.RelayPos.Z+dz*f)
	}
	if d.EmbeddedTag != nil {
		d.EmbeddedTag.Pos = d.RelayPos
	}
	return math.Max(0, dist-stepM)
}

// SetRelayPowered turns the relay's supply on or off (battery sag / swap).
// Power loss also drops the carrier lock: PLLs do not hold state through a
// brown-out, so a swapped-in battery starts the relay unlocked and the
// watchdog must re-acquire.
func (d *Deployment) SetRelayPowered(on bool) {
	if d.Relay == nil {
		return
	}
	if !on && !d.relayOff {
		d.Relay.Unlock()
	}
	d.relayOff = !on
}

// RelayPowered reports whether the relay's supply is up.
func (d *Deployment) RelayPowered() bool { return d.Relay != nil && !d.relayOff }

// ReaderCarrierHz returns the reader's current carrier offset from the
// deployment's nominal channel (nonzero after a CarrierHop fault).
func (d *Deployment) ReaderCarrierHz() float64 { return d.readerHopHz }

// SetReaderCarrierHz forces the reader onto a channel offset, as if a
// CarrierHop fault had already happened. A resumed mission uses it to
// restore the carrier state a checkpointed run had accumulated — the hop
// is persistent damage, so it must survive a rebuild of the deployment.
func (d *Deployment) SetReaderCarrierHz(hz float64) { d.readerHopHz = hz }

// RelayLockHealthy reports whether the relay's lock actually serves the
// reader's CURRENT carrier: powered, locked, tuned to the channel the
// reader is on, and with accumulated LO drift still inside the baseband
// filters. A stale lock (reader hopped away) or an out-of-filter CFO is
// as dark as no lock at all.
func (d *Deployment) RelayLockHealthy() bool {
	if d.Relay == nil {
		return true
	}
	if d.relayOff || !d.Relay.Locked() {
		return false
	}
	cut := d.Relay.Cfg.LPFCutoff
	if math.Abs(d.Relay.ReaderFreq()-d.readerHopHz) >= cut {
		return false
	}
	return math.Abs(d.Relay.CFOHz()) < cut
}

// cfoPenaltyDB converts sub-outage LO drift to an SNR penalty: the offset
// baseband slides up the analog filters' transition band, so attenuation
// grows roughly linearly in |CFO| until the cutoff kills the link outright
// (the RelayLockHealthy gate).
func (d *Deployment) cfoPenaltyDB() float64 {
	if d.Relay == nil {
		return 0
	}
	cfo := math.Abs(d.Relay.CFOHz())
	if cfo <= 0 {
		return 0
	}
	return 20 * cfo / d.Relay.Cfg.LPFCutoff
}

// cfoPhaseTerm models what LO drift does to coherent measurements: any
// uncompensated frequency offset makes the capture's phase spin between
// (and within) captures, so the channel estimate's phase is useless. The
// localizer must reject these samples (loc.RejectUnlocked); if it does
// not, it integrates noise.
func (d *Deployment) cfoPhaseTerm() complex128 {
	if d.Relay == nil || d.Relay.CFOHz() == 0 {
		return 1
	}
	return complexRect(1, d.src.Phase())
}

// RelayPlanStable reports whether the CURRENT gain plan still satisfies
// the Eq. 3 stability conditions against the CURRENT isolation — the same
// check the link budget applies. After an isolation collapse the plan's
// own Stable flag is stale (it described the isolation it was derived
// against); this is the live check the recovery loop should watch to
// decide when ReprogramGains is needed.
func (d *Deployment) RelayPlanStable() bool {
	if d.Relay == nil {
		return true
	}
	return d.Gains.Stable &&
		d.Gains.DownlinkGainDB < d.Iso.IntraDownlinkDB &&
		d.Gains.UplinkGainDB < d.Iso.IntraUplinkDB &&
		d.Gains.DownlinkGainDB+d.Gains.UplinkGainDB < d.Iso.InterDownlinkDB+d.Iso.InterUplinkDB
}

// ReprogramGains is the recovery action for isolation collapse: re-measure
// the (now degraded) self-interference links and derive a fresh §6.1 gain
// plan that is stable against them. Returns the new plan's stability.
func (d *Deployment) ReprogramGains() (bool, error) {
	if d.Relay == nil {
		return false, fmt.Errorf("sim: no relay to reprogram")
	}
	iso, err := d.Relay.MeasureAll(d.src.Split("fault-reprogram"))
	if err != nil {
		return false, err
	}
	// The bench measurement tracks the live antenna isolation; fold in the
	// same collapse the link-budget state carries so the two stay coupled.
	iso.InterDownlinkDB = math.Min(iso.InterDownlinkDB, d.Iso.InterDownlinkDB)
	iso.InterUplinkDB = math.Min(iso.InterUplinkDB, d.Iso.InterUplinkDB)
	iso.IntraDownlinkDB = math.Min(iso.IntraDownlinkDB, d.Iso.IntraDownlinkDB)
	iso.IntraUplinkDB = math.Min(iso.IntraUplinkDB, d.Iso.IntraUplinkDB)
	d.Iso = iso
	d.Gains = d.Relay.ProgramGains(d.Iso)
	return d.Gains.Stable, nil
}

// Sense implements relay.CarrierSense from the deployment's geometry: the
// strongest carrier the relay's front end hears at its current position is
// the reader's, at whatever channel the reader currently occupies. A
// powered-down relay senses nothing.
func (d *Deployment) Sense() (float64, float64, bool) {
	if d.Relay == nil || d.relayOff {
		return 0, 0, false
	}
	return d.SenseAt(d.RelayPos)
}

// SenseAt is Sense evaluated at an arbitrary front-end position, for
// receivers that are not the serving relay — a shadow relay holding a
// pre-lock from its own station. It ignores the serving relay's power
// state (each airframe has its own supply); callers gate on their own.
func (d *Deployment) SenseAt(pos geom.Point) (float64, float64, bool) {
	rcfg := d.Reader.Cfg
	pow := d.Model.ReceivedPowerDBm(d.ReaderPos, pos, rcfg.TxPowerDBm,
		rcfg.AntennaGainDB, 2)
	best := d.readerHopHz
	for _, i := range d.Interferers {
		theirs := d.Model.ReceivedPowerDBm(i.Pos, pos, i.TxPowerDBm,
			i.AntennaGainDB, 2)
		if theirs > pow {
			pow, best = theirs, i.FreqOffset
		}
	}
	return best, pow, true
}

func complexRect(r, theta float64) complex128 {
	return complex(r*math.Cos(theta), r*math.Sin(theta))
}
