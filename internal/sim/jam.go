package sim

import (
	"context"
	"fmt"

	"rfly/internal/geom"
	"rfly/internal/obs"
	"rfly/internal/signal"
	"rfly/internal/world"
)

// Adversarial-RF composition: hostile jammers (world.Jammer) and
// reader-dense multi-cell interference on top of the cooperative
// interferer model in interference.go. Jammers differ from interferers in
// three ways: they are band-area emitters rather than single carriers
// (so rejection depends on whether the reader's channel falls inside the
// jammed band), they are duty-cycled against a scenario tick, and a
// strong enough jammer steals the relay's strongest-carrier lock.

// AddJammerCtx validates and registers a hostile emitter under an obs
// span ("jam.apply") so traced scenarios record when and what
// adversarial RF switched on.
func (d *Deployment) AddJammerCtx(ctx context.Context, j world.Jammer) error {
	_, span := obs.StartSpan(ctx, "jam.apply")
	defer span.End()
	lo, hi := j.Band()
	span.Int("band_area", int64(j.BandArea))
	span.Float("band_lo_mhz", lo/1e6)
	span.Float("band_hi_mhz", hi/1e6)
	span.Float("tx_dbm", j.TxPowerDBm)
	span.Float("duty", j.DutyCycle)
	if err := j.Validate(); err != nil {
		span.Str("error", err.Error())
		return err
	}
	d.Jammers = append(d.Jammers, j)
	return nil
}

// RemoveJammer unregisters the first jammer equal to j, reporting whether
// one was found (the revert path for injected jamming faults).
func (d *Deployment) RemoveJammer(j world.Jammer) bool {
	for i, x := range d.Jammers {
		if x == j {
			d.Jammers = append(d.Jammers[:i], d.Jammers[i+1:]...)
			return true
		}
	}
	return false
}

// SetJamTick advances the scenario clock the jammers' duty cycles are
// gated against. Experiments call it once per inventory round/tick.
func (d *Deployment) SetJamTick(tick int) { d.jamTick = tick }

// JamTick returns the current scenario tick.
func (d *Deployment) JamTick() int { return d.jamTick }

// readerCarrierHz is the reader's absolute current carrier (nominal
// channel plus any hop a CarrierHop fault applied).
func (d *Deployment) readerCarrierHz() float64 { return d.Model.Freq + d.readerHopHz }

// jammerAtReaderW returns the total jamming power (watts) landing in the
// reader's receive band at the current tick, combining the direct path
// and — when a relay is forwarding — the through-relay path. A jammer
// whose band covers the reader's carrier is co-channel: neither the
// reader's channelization nor the relay's baseband filters reject it.
func (d *Deployment) jammerAtReaderW() float64 {
	if len(d.Jammers) == 0 {
		return 0
	}
	carrier := d.readerCarrierHz()
	rcfg := d.Reader.Cfg
	var total float64
	for _, j := range d.Jammers {
		if !j.ActiveAt(d.jamTick) {
			continue
		}
		direct := d.Model.ReceivedPowerDBm(j.Pos, d.ReaderPos, j.TxPowerDBm,
			j.AntennaGainDB, rcfg.AntennaGainDB)
		if off := j.OffsetFromHz(carrier); off != 0 {
			direct -= readerRxRejectionDB
		}
		total += signal.WattsFromDBm(direct)
		if d.Relay != nil && d.Gains.Stable {
			atRelay := d.Model.ReceivedPowerDBm(j.Pos, d.RelayPos, j.TxPowerDBm,
				j.AntennaGainDB, 2)
			off := j.OffsetFromHz(carrier)
			fwd := atRelay - d.filterRejectionDB(off) + d.Gains.UplinkGainDB +
				chanGainDB(d.Model, d.RelayPos, d.ReaderPos, d.Model.Freq, 2, rcfg.AntennaGainDB)
			if off != 0 {
				fwd -= readerRxRejectionDB
			}
			total += signal.WattsFromDBm(fwd)
		}
	}
	return total
}

// ComposeReaderCells rings the deployment with n additional reader cells
// on a regular grid of the given pitch — the reader-dense warehouse
// setting where every neighboring cell's carrier leaks into ours. Cells
// are placed deterministically on alternating adjacent channels (±500
// kHz, ±1 MHz, …), so the composition depends only on (n, pitch, tx).
// Returns the number of cells added.
func (d *Deployment) ComposeReaderCells(n int, pitchM, txDBm float64) int {
	if n <= 0 || pitchM <= 0 {
		return 0
	}
	// Ring offsets around the serving reader, nearest first.
	ring := []geom.Vec{
		{X: 1}, {X: -1}, {Y: 1}, {Y: -1},
		{X: 1, Y: 1}, {X: -1, Y: -1}, {X: 1, Y: -1}, {X: -1, Y: 1},
		{X: 2}, {X: -2}, {Y: 2}, {Y: -2},
	}
	added := 0
	for i := 0; i < n; i++ {
		off := ring[i%len(ring)]
		scale := pitchM * (1 + float64(i/len(ring)))
		// Alternate adjacent channels on both sides of ours, stepping
		// outward every pair: +500k, −500k, +1M, −1M, …
		ch := 500e3 * float64(1+i/2)
		if i%2 == 1 {
			ch = -ch
		}
		d.AddInterferer(Interferer{
			Pos: geom.P(d.ReaderPos.X+off.X*scale, d.ReaderPos.Y+off.Y*scale,
				d.ReaderPos.Z),
			TxPowerDBm:    txDBm,
			AntennaGainDB: d.Reader.Cfg.AntennaGainDB,
			FreqOffset:    ch,
		})
		added++
	}
	return added
}

// JamSummary one-lines the adversarial state for logs.
func (d *Deployment) JamSummary() string {
	return fmt.Sprintf("jam[%d jammers, %d cells, tick %d]",
		len(d.Jammers), len(d.Interferers), d.jamTick)
}
