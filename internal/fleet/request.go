// Package fleet is RFly's mission service layer: a sharded scheduler
// that turns the single-shot supervised runtime (internal/runtime) into
// a long-running, multi-tenant inventory service. Clients submit
// mission requests ("where are these tags in region R"); an admission
// controller holds them in a bounded priority queue with explicit
// backpressure; a batcher coalesces compatible requests — same
// warehouse region, same channel plan — into one sortie so the
// expensive flight and SAR solve are amortized across tenants; and a
// fixed pool of shard workers, each owning exactly one mission engine
// at a time, flies the batches. cmd/rfly-serve fronts the scheduler
// with an HTTP/JSON API.
package fleet

import (
	"fmt"
	"time"

	"rfly/internal/geom"
	"rfly/internal/obs"
	"rfly/internal/runtime"
)

// Region is a warehouse region a mission can target: one corridor
// geometry with a fixed reader installation and relay hover plan.
// Region identity (the Name) is half of the batch-compatibility key —
// two requests for the same region can ride the same sortie.
type Region struct {
	Name            string
	CorridorLengthM float64
	CorridorWidthM  float64
	ReaderPos       geom.Point
	RelayPos        geom.Point
	ShadowSigmaDB   float64
}

// Regions is the service's region table. The seed entries model two
// aisles of the Figure-11 corridor plus a short receiving dock; a
// deployment would load this from configuration.
var Regions = map[string]Region{
	"corridor-east": {
		Name:            "corridor-east",
		CorridorLengthM: 40, CorridorWidthM: 3,
		ReaderPos:     geom.P(0.5, 1.5, 1.2),
		RelayPos:      geom.P(28.2, 1.5, 1.2),
		ShadowSigmaDB: 3,
	},
	"corridor-west": {
		Name:            "corridor-west",
		CorridorLengthM: 40, CorridorWidthM: 3,
		ReaderPos:     geom.P(0.5, 1.2, 1.2),
		RelayPos:      geom.P(26.0, 1.2, 1.2),
		ShadowSigmaDB: 3,
	},
	"dock": {
		Name:            "dock",
		CorridorLengthM: 18, CorridorWidthM: 4,
		ReaderPos:     geom.P(0.5, 2.0, 1.2),
		RelayPos:      geom.P(12.0, 2.0, 1.2),
		ShadowSigmaDB: 4,
	},
}

// DefaultChannelHz is the channel plan used when a request leaves it
// unset (US band center, matching loc.DefaultConfig's carrier).
const DefaultChannelHz = 915e6

// The UHF RFID band a request's channel plan must fall in.
const (
	minChannelHz = 860e6
	maxChannelHz = 960e6
)

// Request is one tenant's inventory ask.
type Request struct {
	// Region names an entry in the Regions table.
	Region string
	// ChannelHz is the reader channel plan; requests only batch with
	// others on the same plan. Zero means DefaultChannelHz.
	ChannelHz float64
	// Tags are the targets to inventory, in region coordinates.
	Tags []runtime.TagSpec
	// Priority orders admission: higher drains first. Ties are FIFO.
	Priority int
	// Seed pins the mission RNG stream; zero lets the batch head's
	// arrival sequence pick one.
	Seed uint64
	// Deadline, when non-zero, bounds the whole request: it maps onto
	// the mission context's deadline, and a request whose deadline
	// passes before its sortie lands is reported Expired.
	Deadline time.Time
	// SARPoints asks for an end-of-sortie SAR localization pass with
	// that many aperture captures (0 = inventory only; localization is
	// reported for the batch head's first tag).
	SARPoints int
	// Exclusive keeps the request out of batch coalescing: it flies a
	// single-tenant sortie. The federation tier sets this on every
	// forwarded mission so the per-mission checkpoint is a complete,
	// relocatable engine snapshot (a coalesced sortie's checkpoint spans
	// the whole batch's tag table and cannot be resumed per-tenant).
	Exclusive bool
	// Resume, when set, is a sortie-boundary checkpoint taken by an
	// engine that flew this same request elsewhere (same seed, region,
	// channel, tags, and fleet shape). The mission restores from it and
	// flies only the remaining sorties — the node-death failover path.
	// Resume implies Exclusive and requires an explicit Seed.
	Resume []byte
}

// exclusive reports whether the request must fly a single-tenant sortie.
func (r Request) exclusive() bool { return r.Exclusive || len(r.Resume) > 0 }

// batchKey is the coalescing identity: requests with equal keys may
// share a sortie.
func (r Request) batchKey() string {
	ch := r.ChannelHz
	if ch == 0 {
		ch = DefaultChannelHz
	}
	return fmt.Sprintf("%s@%.0f", r.Region, ch)
}

func (r Request) validate(maxTags int) error {
	if _, ok := Regions[r.Region]; !ok {
		return fmt.Errorf("fleet: unknown region %q", r.Region)
	}
	if len(r.Tags) == 0 {
		return fmt.Errorf("fleet: request needs at least one tag")
	}
	if maxTags > 0 && len(r.Tags) > maxTags {
		return fmt.Errorf("fleet: request has %d tags, limit is %d", len(r.Tags), maxTags)
	}
	// Written so that NaN fails too.
	if r.ChannelHz != 0 && !(r.ChannelHz >= minChannelHz && r.ChannelHz <= maxChannelHz) {
		return fmt.Errorf("fleet: channel_hz %g outside the UHF RFID band [%g, %g] (0 = default)",
			r.ChannelHz, minChannelHz, maxChannelHz)
	}
	if r.SARPoints < 0 || r.SARPoints > 64 {
		return fmt.Errorf("fleet: sar_points %d out of range [0,64]", r.SARPoints)
	}
	if len(r.Resume) > 0 && r.Seed == 0 {
		return fmt.Errorf("fleet: a resume request needs an explicit seed (the checkpoint was taken under one)")
	}
	return nil
}

// Status is a mission record's lifecycle state.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
	// StatusExpired means the request's deadline passed before its
	// sortie completed.
	StatusExpired Status = "expired"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	switch s {
	case StatusDone, StatusFailed, StatusCanceled, StatusExpired:
		return true
	}
	return false
}

// Outcome is the per-request slice of a completed batch mission.
type Outcome struct {
	// Reads/Attempts cover this request's tags only.
	Reads    int
	Attempts int
	// TagReads is index-aligned with Request.Tags.
	TagReads []uint32
	// Loc carries the end-of-mission SAR localization when the request
	// owned the batch's lead tag and asked for SAR points.
	LocOK      bool
	LocX, LocY float64
	// Sorties is how many sorties the batch mission committed.
	Sorties int
}

// mission is the scheduler's internal record. All mutable fields are
// guarded by the scheduler's mutex.
type mission struct {
	id  string
	seq uint64
	req Request

	status  Status
	outcome *Outcome
	errMsg  string

	submitted time.Time
	started   time.Time
	finished  time.Time

	batchSize int
	shard     int

	canceled bool
	// batch is set while the mission is riding a live sortie; used to
	// propagate cancellation when every member has canceled.
	batch *batchState

	// trace is the batch sortie's flight-recorder span dump, captured
	// when the batch resolves (shared across the batch's members; nil
	// until the mission has flown).
	trace []obs.SpanRecord

	// ckpt is the engine's latest sortie-boundary checkpoint, published
	// live while the batch flies (the replication source). ckptSortie is
	// how many sorties it covers.
	ckpt       []byte
	ckptSortie int

	// capture is the mission's columnar capture log, published whole at
	// the same commit boundary (SAR missions only). capSortie is how many
	// sorties it covers. It feeds download, replay solves, and
	// incremental segment replication.
	capture   []byte
	capSortie int

	// est is the engine's latest live localization estimate, published
	// after each sortie commit while the batch flies. Like the outcome's
	// Loc fields it localizes the batch's lead tag, so only the batch
	// head's record carries one. Nil until the accumulated aperture
	// supports a solve.
	est *runtime.LiveEstimate

	// done closes when the record reaches a terminal status.
	done chan struct{}
}

// View is a read-only snapshot of a mission record, safe to hand out of
// the scheduler's lock.
type View struct {
	ID        string
	Region    string
	Status    Status
	Outcome   *Outcome
	Err       string
	BatchSize int
	Shard     int
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	// Estimate is the latest mid-flight localization estimate (batch
	// head only, once enough aperture has committed); nil otherwise. It
	// keeps updating while the mission runs and freezes at completion.
	Estimate *runtime.LiveEstimate
}

func (m *mission) view() View {
	v := View{
		ID:        m.id,
		Region:    m.req.Region,
		Status:    m.status,
		Err:       m.errMsg,
		BatchSize: m.batchSize,
		Shard:     m.shard,
		Submitted: m.submitted,
		Started:   m.started,
		Finished:  m.finished,
	}
	if m.outcome != nil {
		o := *m.outcome
		o.TagReads = append([]uint32(nil), m.outcome.TagReads...)
		v.Outcome = &o
	}
	if m.est != nil {
		e := *m.est
		v.Estimate = &e
	}
	return v
}
