package sim

// The maximum-fidelity localization test: at every flight position the
// complete Gen2 exchange runs over actual waveforms through the relay
// (WaveMedium); the channels come out of the coherent decoder, are
// disentangled with the embedded tag's decoded channel (Eq. 10), and fed
// to the SAR localizer. Nothing is synthesized analytically — if the
// phases survive the PIE→relay→FM0→decode pipeline, this localizes.

import (
	"context"
	"testing"

	"rfly/internal/epc"
	"rfly/internal/geom"
	"rfly/internal/loc"
)

// waveCapture runs Select → Query (Q=0) against a single target tag and
// returns its decoded channel; then re-arms and captures the embedded
// tag's channel at the same position.
func waveCapture(t *testing.T, m *WaveMedium) (hTag, hEmb complex128, ok bool) {
	t.Helper()
	target := m.Tags[0]
	// Target-only query: park the embedded tag in this session.
	m.Embedded.ClearInventory()
	target.ClearInventory()
	parkEmbedded(m, epc.S0)
	obs := m.Send(epc.Query{Q: 0, Session: epc.S0})
	if len(obs) != 1 || obs[0].Tag != target {
		return 0, 0, false
	}
	hTag = obs[0].H

	// Embedded-only query: park the target instead.
	m.Embedded.ClearInventory()
	target.ClearInventory()
	m.Send(epc.Select{Target: 0, Action: 4, MemBank: epc.BankEPC, Pointer: 0,
		Mask: target.EPC.Bits()[:16]})
	obs = m.Send(epc.Query{Q: 0, Session: epc.S0})
	if len(obs) != 1 || obs[0].Tag != m.Embedded {
		return 0, 0, false
	}
	hEmb = obs[0].H
	return hTag, hEmb, true
}

func TestWaveformSARLocalization(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform SAR is expensive")
	}
	tags := waveTags(1, 21)
	tagPos := geom.P(1.5, 2.0, 0) // on the floor: Localize searches z = 0
	tags[0].Pos = tagPos
	m := NewWaveMedium(geom.P(-10, 1, 1.5), geom.P(0, 0, 1.0), tags, 22)

	// Fly 20 positions along a 3 m line; capture both channels at each by
	// running the full protocol over waveforms.
	traj := geom.Line(geom.P(0, 0, 1.0), geom.P(3, 0, 1.0), 20)
	var meas []loc.Measurement
	for _, p := range traj.Points {
		m.MoveRelay(p)
		hT, hE, ok := waveCapture(t, m)
		if !ok {
			continue
		}
		meas = append(meas, loc.Measurement{Pos: p, H: hT / hE})
	}
	if len(meas) < 15 {
		t.Fatalf("only %d waveform captures", len(meas))
	}
	cfg := loc.DefaultConfig(m.Relay.Cfg.CenterFreq)
	cfg.Region = &loc.Region{X0: -2, Y0: 0.3, X1: 5, Y1: 5}
	res, err := loc.LocalizeCtx(context.Background(), meas, traj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Location.Dist2D(tagPos); e > 0.10 {
		t.Fatalf("waveform-decoded SAR error = %.3f m (est %v)", e, res.Location)
	}
	t.Logf("waveform-decoded SAR error: %.1f cm from %d captures",
		100*res.Location.Dist2D(tagPos), len(meas))
}
