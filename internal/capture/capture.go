// Package capture is RFly's zero-copy capture plane: an append-only
// columnar log of a mission's SAR measurement stream, written
// incrementally by the runtime engine at sortie commits and read back
// without re-materializing records.
//
// The format is deliberately dumb, in the relay-core zero-decode
// tradition (forward bytes, never re-materialize):
//
//	header   "RCAP" | u16 version | u16 reserved(0) | f64 channel_hz |
//	         4×f64 region (x0 y0 x1 y1) | u64 seed | u64 config_hash |
//	         u32 crc32(all preceding header bytes)
//	segment  "RSEG" | u16 version | u16 reserved(0) | u32 sortie |
//	         u32 count | u64 base_seq | count × 64-byte records |
//	         u32 crc32(all preceding segment bytes)
//	record   f64 t | f64 pos_x | f64 pos_y | f64 pos_z |
//	         f64 h_re | f64 h_im | f64 snr_db |
//	         u8 flags (bit0 = unlocked) | 7 × u8 reserved(0)
//
// Everything is little-endian and fixed-width, so a record is readable
// in place: RecordView and SegmentView are plain subslices of the log
// bytes with accessor methods — the read path allocates nothing per
// record. Segments are one-per-committed-sortie (empty sorties write
// nothing), sealed with their own CRC so a segment can be shipped,
// appended, or validated without touching its neighbors. The
// header carries the solve parameters the live engine derived from its
// mission config (carrier, search region, seed, config fingerprint),
// which is what lets Replay re-solve the mission from the log alone.
//
// Decoding is strict: reserved bytes must be zero and flags may carry
// only defined bits, so every accepted frame re-encodes to exactly its
// input bytes (one canonical form per version — the fuzz target holds
// this).
package capture

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"rfly/internal/geom"
	"rfly/internal/loc"
)

const (
	headerMagic = "RCAP"
	segMagic    = "RSEG"

	// Version is the capture-log format version.
	Version = uint16(1)

	// RecordSize is the fixed width of one columnar record.
	RecordSize = 64

	headerSize = 4 + 2 + 2 + 8 + 4*8 + 8 + 8 + 4
	segHdrSize = 4 + 2 + 2 + 4 + 4 + 8

	// maxSegRecords bounds a segment's declared record count so a
	// corrupted length cannot balloon a read (the frame must actually
	// contain the bytes anyway, but the bound keeps the arithmetic
	// overflow-free on 32-bit ints).
	maxSegRecords = 1 << 20
)

// Typed rejection classes. Every decode failure wraps ErrInvalidLog so
// callers holding bytes of unknown provenance (the fuzz harness, a
// replica fetched over HTTP) can classify without string matching.
var (
	// ErrInvalidLog is the root class: the bytes are not a usable
	// capture log.
	ErrInvalidLog = errors.New("capture: invalid log")
	// ErrLogTruncated marks a frame that ends before its declared
	// content (torn write).
	ErrLogTruncated = fmt.Errorf("log truncated: %w", ErrInvalidLog)
	// ErrLogCRC marks a segment or header checksum mismatch.
	ErrLogCRC = fmt.Errorf("log CRC mismatch: %w", ErrInvalidLog)
)

// Header identifies a capture log and carries the solve parameters the
// live engine used, so a replay can rebuild the identical localizer
// configuration without the runtime or sim packages.
type Header struct {
	// ChannelHz is the mission's carrier (loc.Config.Freq).
	ChannelHz float64
	// Region is the live solve's search rectangle.
	Region loc.Region
	// Seed is the mission seed (provenance only; replay never draws
	// randomness).
	Seed uint64
	// ConfigHash fingerprints the mission config the log was captured
	// under, so the checkpoint codec can refuse a log grafted onto a
	// different mission.
	ConfigHash uint64
}

// valid rejects headers no live engine writes: the solve needs a
// positive finite carrier and a non-degenerate search rectangle.
func (h Header) valid() error {
	if !(h.ChannelHz > 0) || math.IsInf(h.ChannelHz, 0) {
		return fmt.Errorf("capture: header carrier %g: %w", h.ChannelHz, ErrInvalidLog)
	}
	r := h.Region
	for _, v := range [...]float64{r.X0, r.Y0, r.X1, r.Y1} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("capture: header region not finite: %w", ErrInvalidLog)
		}
	}
	if r.X1 <= r.X0 || r.Y1 <= r.Y0 {
		return fmt.Errorf("capture: header region [%g,%g]×[%g,%g] degenerate: %w",
			r.X0, r.X1, r.Y0, r.Y1, ErrInvalidLog)
	}
	return nil
}

// Record is one measurement in writer-friendly struct form. The columnar
// encoding round-trips float bits exactly (NaN payloads included), so a
// record is whatever the engine observed, not a normalization of it.
type Record struct {
	// T is the capture time on the global mission-tick clock (fractional
	// for points flown inside one landing window).
	T float64
	// Pos is the relay's OptiTrack-measured position at the capture.
	Pos geom.Point
	// H is the disentangled channel (Eq. 10).
	H complex128
	// SNRdB is the capture SNR; NaN when the path that produced the
	// record observes only a sortie aggregate.
	SNRdB float64
	// Unlocked marks a capture taken with degraded carrier lock.
	Unlocked bool
}

// Measurement converts the record to the localizer's input form.
func (r Record) Measurement() loc.Measurement {
	return loc.Measurement{Pos: r.Pos, H: r.H, Unlocked: r.Unlocked}
}

func appendHeader(buf []byte, h Header) []byte {
	buf = append(buf, headerMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = binary.LittleEndian.AppendUint16(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.ChannelHz))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.Region.X0))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.Region.Y0))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.Region.X1))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.Region.Y1))
	buf = binary.LittleEndian.AppendUint64(buf, h.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, h.ConfigHash)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(buf)-(headerSize-4):]))
}

func appendRecord(buf []byte, r Record) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.T))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Pos.X))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Pos.Y))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Pos.Z))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(real(r.H)))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(imag(r.H)))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.SNRdB))
	var flags byte
	if r.Unlocked {
		flags = 1
	}
	return append(buf, flags, 0, 0, 0, 0, 0, 0, 0)
}

// appendSegment frames and seals one segment.
func appendSegment(buf []byte, sortie int, baseSeq uint64, recs []Record) []byte {
	start := len(buf)
	buf = append(buf, segMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = binary.LittleEndian.AppendUint16(buf, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(sortie))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	buf = binary.LittleEndian.AppendUint64(buf, baseSeq)
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// RecordView is a zero-copy view of one 64-byte record inside a sealed
// segment. Accessors read the bytes in place; nothing is allocated.
type RecordView []byte

func (v RecordView) f64(off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(v[off:]))
}

// T is the capture time on the global mission-tick clock.
func (v RecordView) T() float64 { return v.f64(0) }

// Pos is the relay's measured position at the capture.
func (v RecordView) Pos() geom.Point { return geom.P(v.f64(8), v.f64(16), v.f64(24)) }

// H is the disentangled channel.
func (v RecordView) H() complex128 { return complex(v.f64(32), v.f64(40)) }

// SNRdB is the capture SNR (NaN when unknown).
func (v RecordView) SNRdB() float64 { return v.f64(48) }

// Unlocked reports whether the capture was taken with degraded lock.
func (v RecordView) Unlocked() bool { return v[56]&1 != 0 }

// Measurement converts the view to the localizer's input form.
func (v RecordView) Measurement() loc.Measurement {
	return loc.Measurement{Pos: v.Pos(), H: v.H(), Unlocked: v.Unlocked()}
}

// SegmentView is a zero-copy view of one sealed segment (framing, its
// records, and the CRC trailer). It is only ever produced by a
// validating decode, so accessors may index without re-checking bounds.
type SegmentView []byte

// Sortie is the committed sortie count when the segment was sealed
// (1-based: the first committed sortie writes segment sortie 1).
func (s SegmentView) Sortie() int { return int(binary.LittleEndian.Uint32(s[8:])) }

// Count is the number of records in the segment.
func (s SegmentView) Count() int { return int(binary.LittleEndian.Uint32(s[12:])) }

// BaseSeq is the log-wide sequence number of the segment's first record.
func (s SegmentView) BaseSeq() uint64 { return binary.LittleEndian.Uint64(s[16:]) }

// Record returns the i-th record view (a subslice; no allocation).
func (s SegmentView) Record(i int) RecordView {
	off := segHdrSize + i*RecordSize
	return RecordView(s[off : off+RecordSize])
}

// Bytes returns the sealed segment bytes verbatim — the unit the
// replication path forwards without re-encoding.
func (s SegmentView) Bytes() []byte { return s }

// decodeRecordStrict enforces the canonical form: reserved pad bytes
// zero, flags limited to defined bits.
func decodeRecordStrict(v RecordView) error {
	if v[56]&^1 != 0 {
		return fmt.Errorf("capture: record flags %02x carry undefined bits: %w", v[56], ErrInvalidLog)
	}
	for _, b := range v[57:RecordSize] {
		if b != 0 {
			return fmt.Errorf("capture: record reserved bytes not zero: %w", ErrInvalidLog)
		}
	}
	return nil
}

// DecodeSegment validates the framed segment at the head of data and
// returns its view plus the remaining bytes. It refuses bad magic,
// unknown versions, nonzero reserved fields, truncated frames, and CRC
// mismatches — every accepted segment is in canonical form (re-encoding
// its fields and records reproduces the input bytes exactly).
func DecodeSegment(data []byte) (SegmentView, []byte, error) {
	if len(data) < segHdrSize+4 {
		return nil, nil, fmt.Errorf("capture: segment frame %d bytes short of header: %w", len(data), ErrLogTruncated)
	}
	if string(data[:4]) != segMagic {
		return nil, nil, fmt.Errorf("capture: bad segment magic %q: %w", data[:4], ErrInvalidLog)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return nil, nil, fmt.Errorf("capture: unsupported segment version %d: %w", v, ErrInvalidLog)
	}
	if rsv := binary.LittleEndian.Uint16(data[6:]); rsv != 0 {
		return nil, nil, fmt.Errorf("capture: segment reserved field %04x not zero: %w", rsv, ErrInvalidLog)
	}
	count := int(binary.LittleEndian.Uint32(data[12:]))
	if count == 0 || count > maxSegRecords {
		return nil, nil, fmt.Errorf("capture: segment record count %d out of range: %w", count, ErrInvalidLog)
	}
	total := segHdrSize + count*RecordSize + 4
	if len(data) < total {
		return nil, nil, fmt.Errorf("capture: segment declares %d records but frame holds %d bytes: %w",
			count, len(data), ErrLogTruncated)
	}
	seg := SegmentView(data[:total])
	body, trailer := seg[:total-4], seg[total-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, nil, fmt.Errorf("capture: segment CRC %08x != computed %08x: %w", got, want, ErrLogCRC)
	}
	for i := 0; i < count; i++ {
		if err := decodeRecordStrict(seg.Record(i)); err != nil {
			return nil, nil, err
		}
	}
	return seg, data[total:], nil
}

// decodeHeader validates the log header at the head of data.
func decodeHeader(data []byte) (Header, []byte, error) {
	if len(data) < headerSize {
		return Header{}, nil, fmt.Errorf("capture: log %d bytes short of header: %w", len(data), ErrLogTruncated)
	}
	if string(data[:4]) != headerMagic {
		return Header{}, nil, fmt.Errorf("capture: bad log magic %q: %w", data[:4], ErrInvalidLog)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return Header{}, nil, fmt.Errorf("capture: unsupported log version %d: %w", v, ErrInvalidLog)
	}
	if rsv := binary.LittleEndian.Uint16(data[6:]); rsv != 0 {
		return Header{}, nil, fmt.Errorf("capture: header reserved field %04x not zero: %w", rsv, ErrInvalidLog)
	}
	body, trailer := data[:headerSize-4], data[headerSize-4:headerSize]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return Header{}, nil, fmt.Errorf("capture: header CRC %08x != computed %08x: %w", got, want, ErrLogCRC)
	}
	f := func(off int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	}
	h := Header{
		ChannelHz:  f(8),
		Region:     loc.Region{X0: f(16), Y0: f(24), X1: f(32), Y1: f(40)},
		Seed:       binary.LittleEndian.Uint64(data[48:]),
		ConfigHash: binary.LittleEndian.Uint64(data[56:]),
	}
	if err := h.valid(); err != nil {
		return Header{}, nil, err
	}
	return h, data[headerSize:], nil
}

// Reader is a validated, zero-copy index over a complete capture log.
// It holds the log bytes and per-segment offsets; record access never
// allocates.
type Reader struct {
	header  Header
	data    []byte
	segOff  []int // byte offset of each sealed segment
	segLen  []int
	records uint64
}

// OpenLog validates data as a complete capture log (header plus zero or
// more sealed segments) and returns a reader over it. Beyond per-frame
// validation it checks the log-wide invariants the writer maintains:
// sortie numbers strictly increase and each segment's base sequence
// continues the running record count.
func OpenLog(data []byte) (*Reader, error) {
	h, rest, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	r := &Reader{header: h, data: data}
	off := headerSize
	lastSortie := 0
	for len(rest) > 0 {
		seg, tail, err := DecodeSegment(rest)
		if err != nil {
			return nil, err
		}
		if seg.Sortie() <= lastSortie {
			return nil, fmt.Errorf("capture: segment sortie %d not after %d: %w",
				seg.Sortie(), lastSortie, ErrInvalidLog)
		}
		if seg.BaseSeq() != r.records {
			return nil, fmt.Errorf("capture: segment base seq %d != running record count %d: %w",
				seg.BaseSeq(), r.records, ErrInvalidLog)
		}
		lastSortie = seg.Sortie()
		r.segOff = append(r.segOff, off)
		r.segLen = append(r.segLen, len(seg))
		r.records += uint64(seg.Count())
		off += len(seg)
		rest = tail
	}
	return r, nil
}

// Header returns the log's identity block.
func (r *Reader) Header() Header { return r.header }

// NumSegments returns how many sealed segments the log holds.
func (r *Reader) NumSegments() int { return len(r.segOff) }

// Records returns the total record count across all segments.
func (r *Reader) Records() uint64 { return r.records }

// Segment returns the i-th segment view (a subslice; no allocation).
func (r *Reader) Segment(i int) SegmentView {
	return SegmentView(r.data[r.segOff[i] : r.segOff[i]+r.segLen[i]])
}

// LastSortie returns the sortie count of the newest segment (0 when the
// log holds none).
func (r *Reader) LastSortie() int {
	if len(r.segOff) == 0 {
		return 0
	}
	return r.Segment(len(r.segOff) - 1).Sortie()
}

// Measurements flattens every record into localizer input order — the
// exact stream the live engine fed its solver. (This is the one reader
// path that allocates, for callers that need the whole history at once;
// the replay solve itself feeds per-segment batches.)
func (r *Reader) Measurements() []loc.Measurement {
	out := make([]loc.Measurement, 0, r.records)
	for i := 0; i < r.NumSegments(); i++ {
		seg := r.Segment(i)
		for j := 0; j < seg.Count(); j++ {
			out = append(out, seg.Record(j).Measurement())
		}
	}
	return out
}
