package runtime

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"rfly/internal/capture"
	"rfly/internal/geom"
	"rfly/internal/obs"
	"rfly/internal/rng"
	"rfly/internal/swarm"
)

// Checkpoint codec: a versioned, checksummed binary snapshot of mission
// state at a sortie boundary. The format is deliberately boring —
// little-endian fixed-width fields behind a magic/version header, a
// config fingerprint so a checkpoint cannot be resumed under different
// mission parameters, and a CRC32 trailer so torn writes are detected
// rather than replayed. Every field here is load-bearing for bit-exact
// resume; anything the engine reconstructs deterministically (the
// deployment, the supervisor, the watchdog) is deliberately absent.

// Layout (version 5): magic, version, config hash, sortie cursor, the
// plan-provenance block, the mission RNG state, the carryover, the swarm
// fleet block, per-tag inventory, the sortie results, the capture log
// embedded verbatim, and the streaming SAR accumulator grid, closed by a
// CRC32 trailer. Optional blocks always write their presence flag, so
// each version has exactly one canonical form. Earlier versions lacked
// the swarm block (v1), the accumulator grid (v2), the embedded log (v3,
// which carried a flat capture buffer instead) and the plan block (v4);
// only the current version is read — Restore and DecodePlanProvenance
// reject every other as ErrInvalidCheckpoint.
const (
	ckptMagic   = "RFC1"
	ckptVersion = uint16(5)
)

// Typed rejection classes. Every Restore failure wraps
// ErrInvalidCheckpoint, so callers holding bytes of unknown provenance
// (the fuzz harness, the federation replica path) can classify "this is
// not a usable checkpoint" without string matching; the narrower
// sentinels distinguish storage corruption (torn write, bit rot) from a
// checkpoint that is intact but belongs to a different mission.
var (
	// ErrInvalidCheckpoint is the root class: the bytes cannot restore an
	// engine under the given config.
	ErrInvalidCheckpoint = errors.New("runtime: invalid checkpoint")
	// ErrCheckpointTruncated marks a frame that ends before its declared
	// content (torn write).
	ErrCheckpointTruncated = fmt.Errorf("checkpoint truncated: %w", ErrInvalidCheckpoint)
	// ErrCheckpointCRC marks a trailer checksum mismatch (bit rot or a
	// flipped byte anywhere in the frame).
	ErrCheckpointCRC = fmt.Errorf("checkpoint CRC mismatch: %w", ErrInvalidCheckpoint)
	// ErrCheckpointConfigMismatch marks an intact checkpoint taken under
	// different mission parameters.
	ErrCheckpointConfigMismatch = fmt.Errorf("checkpoint config mismatch: %w", ErrInvalidCheckpoint)
)

type ckptWriter struct{ buf []byte }

func (w *ckptWriter) u8(v uint8)    { w.buf = append(w.buf, v) }
func (w *ckptWriter) u16(v uint16)  { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *ckptWriter) u32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *ckptWriter) u64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *ckptWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

// grow makes room for n more bytes in exactly one allocation, in normal
// and race-instrumented builds alike; slices.Grow takes two under -race,
// which an exact allocation test cannot pin.
func (w *ckptWriter) grow(n int) {
	if cap(w.buf)-len(w.buf) < n {
		w.buf = append(make([]byte, 0, len(w.buf)+n), w.buf...)
	}
}

func (w *ckptWriter) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

type ckptReader struct {
	buf []byte
	off int
	err error
}

func (r *ckptReader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("runtime: checkpoint truncated at offset %d (need %d of %d bytes): %w",
			r.off, n, len(r.buf), ErrCheckpointTruncated)
		return false
	}
	return true
}

func (r *ckptReader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *ckptReader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *ckptReader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *ckptReader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *ckptReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *ckptReader) boolean() bool { return r.u8() != 0 }

// ckptMaxSlice bounds decoded slice lengths so a corrupted length prefix
// cannot balloon an allocation (fuzzing finds this in minutes otherwise).
const ckptMaxSlice = 1 << 20

// ckptMaxLog bounds the embedded capture-log block (64 records/sortie ×
// 64 B over any plausible mission is far below this; the bound only
// exists so a forged length cannot size an allocation).
const ckptMaxLog = 64 << 20

func (r *ckptReader) length(what string) int {
	n := int(r.u32())
	if r.err == nil && n > ckptMaxSlice {
		r.err = fmt.Errorf("runtime: checkpoint %s length %d exceeds limit: %w", what, n, ErrInvalidCheckpoint)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// SnapshotCtx serializes the engine's committed state. Taken at a sortie
// boundary it is exact: Restore followed by the remaining sorties
// produces byte-identical results to the uninterrupted mission.
//
// When ctx carries an obs recorder the encode is bracketed by a
// "runtime.checkpoint" span. Checkpoints happen only at sortie
// boundaries, so in a recorded mission the checkpoint spans interleave
// with — never overlap — the sortie spans and the escalations inside
// them; the trace invariant tests assert exactly that bracketing. The
// span never changes the encoded bytes.
func (e *Engine) SnapshotCtx(ctx context.Context) []byte {
	_, span := obs.StartSpan(ctx, "runtime.checkpoint")
	defer span.End()
	w := &ckptWriter{}
	w.buf = append(w.buf, ckptMagic...)
	w.u16(ckptVersion)
	w.u64(e.cfgHash)
	w.u32(uint32(e.cur))

	// Plan-provenance block: the relay plan the mission flies.
	// Redundant with the config hash by construction, but carried
	// explicitly so checkpoint holders (the chaos harness, federation
	// replicas) can audit WHICH plan without the config in hand.
	hasPlan := len(e.cfg.PlanStations) > 0
	w.boolean(hasPlan)
	if hasPlan {
		name := []byte(e.cfg.PlanName)
		w.u32(uint32(len(name)))
		w.buf = append(w.buf, name...)
		w.u64(e.cfg.PlanHash)
		w.u32(uint32(len(e.cfg.PlanStations)))
		for _, st := range e.cfg.PlanStations {
			w.f64(st.X)
			w.f64(st.Y)
			w.f64(st.Z)
		}
	}

	st := e.src.Snapshot()
	w.u64(st.State)
	w.u64(st.Inc)
	w.f64(st.Gauss)
	w.boolean(st.HasNorm)

	c := e.carry
	w.boolean(c.RelayPowered)
	w.boolean(c.RelayLocked)
	w.f64(c.RelayReaderFreq)
	w.f64(c.RelayCFOHz)
	w.f64(c.ReaderHopHz)
	w.f64(c.AntennaIsoDB)
	w.boolean(c.HasIso)
	w.f64(c.Iso.InterDownlinkDB)
	w.f64(c.Iso.InterUplinkDB)
	w.f64(c.Iso.IntraDownlinkDB)
	w.f64(c.Iso.IntraUplinkDB)
	w.f64(c.Gains.DownVGADB)
	w.f64(c.Gains.UpVGADB)
	w.f64(c.Gains.DownlinkGainDB)
	w.f64(c.Gains.UplinkGainDB)
	w.boolean(c.Gains.Stable)
	w.f64(c.RelayPos.X)
	w.f64(c.RelayPos.Y)
	w.f64(c.RelayPos.Z)

	// Swarm fleet block: the election term, the primary, and every
	// member's carryover state. Empty (hasSwarm = false) for single-relay
	// missions.
	hasSwarm := len(c.Swarm.Members) > 0
	w.boolean(hasSwarm)
	if hasSwarm {
		w.u64(c.Swarm.Term)
		w.u32(uint32(c.Swarm.Primary))
		w.u32(uint32(len(c.Swarm.Members)))
		for _, m := range c.Swarm.Members {
			w.u32(uint32(m.Cell))
			w.boolean(m.Alive)
			w.boolean(m.Powered)
			w.boolean(m.Locked)
			w.f64(m.ReaderFreq)
			w.f64(m.CFOHz)
			w.f64(m.Pos.X)
			w.f64(m.Pos.Y)
			w.f64(m.Pos.Z)
		}
	}

	w.u32(uint32(len(e.tagReads)))
	for _, n := range e.tagReads {
		w.u32(n)
	}

	w.u32(uint32(len(e.results)))
	for _, s := range e.results {
		w.u32(uint32(s.Sortie))
		w.u64(uint64(s.StartTick))
		w.u32(uint32(s.Attempts))
		w.u32(uint32(s.Reads))
		w.u32(uint32(len(s.TagReads)))
		for _, n := range s.TagReads {
			w.u32(n)
		}
		w.u32(uint32(s.Relocks))
		w.u32(uint32(s.Resweeps))
		w.u32(uint32(s.LossEvents))
		w.u32(uint32(s.Recoveries))
		w.u32(uint32(s.FailedRecoveries))
		w.u32(uint32(s.BreakerTrips))
		w.u32(uint32(s.BatterySwaps))
		w.u32(uint32(s.LaunchRelockTicks))
		w.boolean(s.Aborted)
		w.u32(uint32(s.SARPoints))
		w.f64(s.MeanSNRdB)
		w.u32(uint32(s.Elections))
		w.u32(uint32(s.Promotions))
		w.u32(uint32(len(s.Handoffs)))
		for _, h := range s.Handoffs {
			w.u64(h.Term)
			w.u32(uint32(h.FromID))
			w.u32(uint32(h.ToID))
			w.u32(uint32(h.Tick))
			w.u32(uint32(h.SARCaptured))
			w.u32(uint32(h.LatencyTicks))
			w.boolean(h.PreLocked)
		}
	}

	// Capture log block: the mission's capture log bytes, whole. The log
	// is self-framing (versioned header, CRC-sealed segments), so the
	// checkpoint neither re-encodes nor decodes it — SnapshotCtx appends
	// a snapshot of the bytes, Restore validates them with the capture
	// codec and installs them verbatim.
	hasLog := e.capLog != nil
	w.boolean(hasLog)
	if hasLog {
		lb := e.capLog.Snapshot()
		w.u32(uint32(len(lb)))
		w.buf = append(w.buf, lb...)
	}

	// Streaming SAR accumulator block: grid dims plus per-cell
	// complex partial sums. The grid is installed verbatim on Restore —
	// never re-accumulated — so a resumed mission's estimates are
	// bit-identical to the uninterrupted ones.
	hasStream := e.solver != nil
	w.boolean(hasStream)
	if hasStream {
		cols, rows := e.solver.Dims()
		w.u32(uint32(cols))
		w.u32(uint32(rows))
		// One grow for the grid and the CRC trailer, instead of the
		// doublings the cell appends would take; the solver encodes its
		// grid in place, without a copy.
		w.grow(16*cols*rows + 4)
		w.buf = e.solver.AppendGrid(w.buf)
	}

	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf
}

// openFrame checks a checkpoint frame's length, CRC trailer, magic and
// version, and returns a reader over its body positioned at the config
// hash.
func openFrame(data []byte) (*ckptReader, error) {
	if len(data) < len(ckptMagic)+2+8+4 {
		return nil, fmt.Errorf("runtime: checkpoint too short (%d bytes): %w", len(data), ErrCheckpointTruncated)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("runtime: checkpoint CRC %08x != computed %08x: %w", got, want, ErrCheckpointCRC)
	}
	if magic := body[:len(ckptMagic)]; string(magic) != ckptMagic {
		return nil, fmt.Errorf("runtime: bad checkpoint magic %q: %w", magic, ErrInvalidCheckpoint)
	}
	r := &ckptReader{buf: body, off: len(ckptMagic)}
	if ver := r.u16(); ver != ckptVersion {
		return nil, fmt.Errorf("runtime: unsupported checkpoint version %d: %w", ver, ErrInvalidCheckpoint)
	}
	return r, nil
}

// Restore rebuilds an engine from a checkpoint taken by SnapshotCtx. It
// refuses checkpoints with a bad magic, any version but the current one,
// a config hash that does not match cfg, any truncation, or a CRC
// mismatch.
func Restore(cfg Config, data []byte) (*Engine, error) {
	r, err := openFrame(data)
	if err != nil {
		return nil, err
	}
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if h := r.u64(); r.err == nil && h != e.cfgHash {
		return nil, fmt.Errorf("runtime: checkpoint config hash %016x does not match mission config %016x: %w",
			h, e.cfgHash, ErrCheckpointConfigMismatch)
	}
	cur := int(r.u32())

	// Plan-provenance block. The config hash already pinned the plan, so
	// any disagreement here is a forged or cross-wired frame — rejected
	// as a config mismatch, the same class as a wrong fleet.
	if err := readPlanBlock(r, e.cfg); err != nil {
		return nil, err
	}

	var st rng.State
	st.State = r.u64()
	st.Inc = r.u64()
	st.Gauss = r.f64()
	st.HasNorm = r.boolean()

	var c Carryover
	c.RelayPowered = r.boolean()
	c.RelayLocked = r.boolean()
	c.RelayReaderFreq = r.f64()
	c.RelayCFOHz = r.f64()
	c.ReaderHopHz = r.f64()
	c.AntennaIsoDB = r.f64()
	c.HasIso = r.boolean()
	c.Iso.InterDownlinkDB = r.f64()
	c.Iso.InterUplinkDB = r.f64()
	c.Iso.IntraDownlinkDB = r.f64()
	c.Iso.IntraUplinkDB = r.f64()
	c.Gains.DownVGADB = r.f64()
	c.Gains.UpVGADB = r.f64()
	c.Gains.DownlinkGainDB = r.f64()
	c.Gains.UplinkGainDB = r.f64()
	c.Gains.Stable = r.boolean()
	c.RelayPos.X = r.f64()
	c.RelayPos.Y = r.f64()
	c.RelayPos.Z = r.f64()

	if hasSwarm := r.boolean(); hasSwarm && r.err == nil {
		if !e.cfg.Swarm.Enabled() {
			return nil, fmt.Errorf("runtime: checkpoint carries a swarm fleet but the mission config has none: %w",
				ErrCheckpointConfigMismatch)
		}
		c.Swarm.Term = r.u64()
		c.Swarm.Primary = int(r.u32())
		nMem := r.length("swarm members")
		if r.err == nil && nMem != e.cfg.Swarm.Relays {
			return nil, fmt.Errorf("runtime: checkpoint fleet has %d members, config has %d: %w",
				nMem, e.cfg.Swarm.Relays, ErrCheckpointConfigMismatch)
		}
		if r.err == nil && c.Swarm.Primary >= nMem {
			return nil, fmt.Errorf("runtime: checkpoint primary %d out of fleet range %d: %w",
				c.Swarm.Primary, nMem, ErrInvalidCheckpoint)
		}
		for i := 0; i < nMem && r.err == nil; i++ {
			var m swarm.MemberState
			m.Cell = int(r.u32())
			m.Alive = r.boolean()
			m.Powered = r.boolean()
			m.Locked = r.boolean()
			m.ReaderFreq = r.f64()
			m.CFOHz = r.f64()
			m.Pos = geom.P(r.f64(), r.f64(), r.f64())
			c.Swarm.Members = append(c.Swarm.Members, m)
		}
		if r.err == nil && len(c.Swarm.Members) == 0 {
			return nil, fmt.Errorf("runtime: checkpoint swarm block is empty: %w", ErrInvalidCheckpoint)
		}
	}

	nTags := r.length("tag table")
	if r.err == nil && nTags != len(e.cfg.Tags) {
		return nil, fmt.Errorf("runtime: checkpoint has %d tags, config has %d: %w",
			nTags, len(e.cfg.Tags), ErrCheckpointConfigMismatch)
	}
	tagReads := make([]uint32, 0, nTags)
	for i := 0; i < nTags && r.err == nil; i++ {
		tagReads = append(tagReads, r.u32())
	}

	nRes := r.length("sortie results")
	results := make([]SortieResult, 0, min(nRes, 4096))
	for i := 0; i < nRes && r.err == nil; i++ {
		var s SortieResult
		s.Sortie = int(r.u32())
		s.StartTick = int64(r.u64())
		s.Attempts = int(r.u32())
		s.Reads = int(r.u32())
		nt := r.length("sortie tag reads")
		for j := 0; j < nt && r.err == nil; j++ {
			s.TagReads = append(s.TagReads, r.u32())
		}
		s.Relocks = int(r.u32())
		s.Resweeps = int(r.u32())
		s.LossEvents = int(r.u32())
		s.Recoveries = int(r.u32())
		s.FailedRecoveries = int(r.u32())
		s.BreakerTrips = int(r.u32())
		s.BatterySwaps = int(r.u32())
		s.LaunchRelockTicks = int(r.u32())
		s.Aborted = r.boolean()
		s.SARPoints = int(r.u32())
		s.MeanSNRdB = r.f64()
		s.Elections = int(r.u32())
		s.Promotions = int(r.u32())
		nh := r.length("handoff records")
		for j := 0; j < nh && r.err == nil; j++ {
			var h swarm.HandoffRecord
			h.Term = r.u64()
			h.FromID = int(r.u32())
			h.ToID = int(r.u32())
			h.Tick = int(r.u32())
			h.SARCaptured = int(r.u32())
			h.LatencyTicks = int(r.u32())
			h.PreLocked = r.boolean()
			s.Handoffs = append(s.Handoffs, h)
		}
		results = append(results, s)
	}

	// Capture log block: held as a view into the frame until the whole
	// frame has parsed, then validated and copied once by capture.Resume.
	var capLogBytes []byte
	if hasLog := r.boolean(); r.err == nil {
		if hasLog != (e.capLog != nil) {
			return nil, fmt.Errorf("runtime: checkpoint capture log present=%t but mission SAR config present=%t: %w",
				hasLog, e.capLog != nil, ErrCheckpointConfigMismatch)
		}
		if hasLog {
			n := int(r.u32())
			if r.err == nil && n > ckptMaxLog {
				return nil, fmt.Errorf("runtime: checkpoint capture log length %d exceeds limit: %w", n, ErrInvalidCheckpoint)
			}
			if r.need(n) {
				capLogBytes = r.buf[r.off : r.off+n]
				r.off += n
			}
		}
	}

	// Streaming SAR accumulator block. Its presence must agree with the
	// config (a SAR mission always builds a solver, a non-SAR mission
	// never does), and its dims must match the config-derived lattice —
	// both are config mismatches, not corruption, since the CRC already
	// passed. Dims are validated before the cell loop so a forged header
	// cannot size the allocation.
	var streamSum []complex128
	if hasStream := r.boolean(); r.err == nil {
		if hasStream != (e.solver != nil) {
			return nil, fmt.Errorf("runtime: checkpoint stream block present=%t but mission SAR config present=%t: %w",
				hasStream, e.solver != nil, ErrCheckpointConfigMismatch)
		}
		if hasStream {
			cols := int(r.u32())
			rows := int(r.u32())
			wantCols, wantRows := e.solver.Dims()
			if r.err == nil && (cols != wantCols || rows != wantRows) {
				return nil, fmt.Errorf("runtime: checkpoint stream grid %d×%d does not match configured lattice %d×%d: %w",
					cols, rows, wantCols, wantRows, ErrCheckpointConfigMismatch)
			}
			if r.err == nil {
				streamSum = make([]complex128, 0, cols*rows)
				for i := 0; i < cols*rows && r.err == nil; i++ {
					re := r.f64()
					im := r.f64()
					streamSum = append(streamSum, complex(re, im))
				}
			}
		}
	}

	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("runtime: checkpoint has %d trailing bytes: %w", len(r.buf)-r.off, ErrInvalidCheckpoint)
	}
	if cur > e.cfg.Sorties || len(results) != cur {
		return nil, fmt.Errorf("runtime: checkpoint cursor %d inconsistent with %d results (config allows %d): %w",
			cur, len(results), e.cfg.Sorties, ErrInvalidCheckpoint)
	}

	src, err := rng.Restore(st)
	if err != nil {
		return nil, fmt.Errorf("runtime: checkpoint RNG state: %v: %w", err, ErrInvalidCheckpoint)
	}
	e.cur = cur
	e.carry = c
	e.src = src
	e.tagReads = tagReads
	e.results = results
	if capLogBytes != nil {
		if err := e.restoreSAR(capLogBytes, streamSum); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// restoreSAR installs a checkpoint's SAR state: the embedded capture log
// and the accumulator grid. The log is validated with its own codec,
// its provenance header checked against the mission config, and its
// segments cross-checked against the sortie results — one segment per
// SAR-bearing sortie, counts matching. The grid is then installed
// verbatim and the log's records replayed through the solver's
// bookkeeping filters (trajectory, robust rejection accounting); the
// grid cells themselves are never re-accumulated, which is what keeps
// resumed estimates bit-exact.
func (e *Engine) restoreSAR(logBytes []byte, sum []complex128) error {
	lg, rd, err := capture.Resume(logBytes)
	if err != nil {
		return fmt.Errorf("runtime: checkpoint capture log: %v: %w", err, ErrInvalidCheckpoint)
	}
	if rd.Header() != e.cfg.captureHeader() {
		return fmt.Errorf("runtime: checkpoint capture log header does not match mission config: %w",
			ErrCheckpointConfigMismatch)
	}
	segIdx := 0
	for _, s := range e.results {
		if s.SARPoints == 0 {
			continue
		}
		if segIdx >= rd.NumSegments() || rd.Segment(segIdx).Sortie() != s.Sortie+1 ||
			rd.Segment(segIdx).Count() != s.SARPoints {
			return fmt.Errorf("runtime: checkpoint capture log segments disagree with sortie results: %w",
				ErrInvalidCheckpoint)
		}
		segIdx++
	}
	if segIdx != rd.NumSegments() {
		return fmt.Errorf("runtime: checkpoint capture log has %d orphan segments: %w",
			rd.NumSegments()-segIdx, ErrInvalidCheckpoint)
	}
	if err := e.solver.Restore(sum, rd.Measurements()); err != nil {
		return fmt.Errorf("runtime: checkpoint stream grid: %v: %w", err, ErrInvalidCheckpoint)
	}
	e.capLog = lg
	return nil
}

// ckptMaxPlanName bounds the provenance name so a forged length cannot
// size an allocation.
const ckptMaxPlanName = 256

// readPlanBlock parses and cross-validates the plan-provenance block
// against the mission config.
func readPlanBlock(r *ckptReader, cfg Config) error {
	hasPlan := r.boolean()
	if r.err != nil {
		return r.err
	}
	if hasPlan != (len(cfg.PlanStations) > 0) {
		return fmt.Errorf("runtime: checkpoint plan present=%t but mission config planned=%t: %w",
			hasPlan, len(cfg.PlanStations) > 0, ErrCheckpointConfigMismatch)
	}
	if !hasPlan {
		return nil
	}
	p, err := parsePlanProvenance(r)
	if err != nil {
		return err
	}
	if p.Name != cfg.PlanName || p.Hash != cfg.PlanHash || len(p.Stations) != len(cfg.PlanStations) {
		return fmt.Errorf("runtime: checkpoint plan %q/%016x/%d stations does not match mission plan %q/%016x/%d: %w",
			p.Name, p.Hash, len(p.Stations), cfg.PlanName, cfg.PlanHash, len(cfg.PlanStations),
			ErrCheckpointConfigMismatch)
	}
	for i, st := range p.Stations {
		if st != cfg.PlanStations[i] {
			return fmt.Errorf("runtime: checkpoint plan station %d at %v, mission plan at %v: %w",
				i, st, cfg.PlanStations[i], ErrCheckpointConfigMismatch)
		}
	}
	return nil
}

// parsePlanProvenance reads the provenance payload (after the hasPlan
// flag) from r.
func parsePlanProvenance(r *ckptReader) (PlanProvenance, error) {
	var p PlanProvenance
	n := int(r.u32())
	if r.err == nil && (n == 0 || n > ckptMaxPlanName) {
		r.err = fmt.Errorf("runtime: checkpoint plan name length %d outside [1, %d]: %w",
			n, ckptMaxPlanName, ErrInvalidCheckpoint)
	}
	if r.need(n) {
		p.Name = string(r.buf[r.off : r.off+n])
		r.off += n
	}
	p.Hash = r.u64()
	nSt := r.length("plan stations")
	if r.err == nil && nSt == 0 {
		r.err = fmt.Errorf("runtime: checkpoint plan has no stations: %w", ErrInvalidCheckpoint)
	}
	for i := 0; i < nSt && r.err == nil; i++ {
		p.Stations = append(p.Stations, geom.P(r.f64(), r.f64(), r.f64()))
	}
	return p, r.err
}

// PlanProvenance is the relay plan a checkpoint proves its mission flies:
// the emitting planner's name, the plan's fingerprint (plan.Result.Hash),
// and the station tour.
type PlanProvenance struct {
	Name     string
	Hash     uint64
	Stations []geom.Point
}

// DecodePlanProvenance extracts the plan-provenance block from a raw
// checkpoint frame without a mission config: the audit entry point for
// checkpoint holders (chaos harness, federation replicas). Returns
// ok=false — with no error — for intact frames of unplanned missions; an
// error for frames that are not valid current-version checkpoints.
func DecodePlanProvenance(data []byte) (PlanProvenance, bool, error) {
	r, err := openFrame(data)
	if err != nil {
		return PlanProvenance{}, false, err
	}
	r.u64() // config hash — not validated without a config
	r.u32() // cursor
	if !r.boolean() {
		return PlanProvenance{}, false, r.err
	}
	p, err := parsePlanProvenance(r)
	if err != nil {
		return PlanProvenance{}, false, err
	}
	return p, true, nil
}
