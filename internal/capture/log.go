package capture

import (
	"context"
	"sync"

	"rfly/internal/obs"
)

// Log is the append-only writer. The runtime engine owns one per SAR
// mission and seals a segment at each sortie commit; everything before
// the current append is immutable, which is what makes Snapshot cheap
// and a snapshot always a complete, self-validating log.
//
// The writer is mutex-guarded: the engine appends from the mission
// goroutine while the fleet layer snapshots for publication and the
// HTTP layer serves downloads.
type Log struct {
	mu   sync.Mutex
	buf  []byte
	seq  uint64 // next record sequence number
	segs int
	last int // newest sealed sortie
}

// NewLog starts an empty log: a sealed header, no segments.
func NewLog(h Header) *Log {
	return &Log{buf: appendHeader(nil, h)}
}

// Resume reopens a serialized log for further appends — the checkpoint
// restore path. The bytes are copied once and the copy validated end to
// end; the writer continues the sequence and sortie counters where the
// log left off. The returned Reader views the copy as it stood at
// Resume, so the caller can cross-check the segments without opening the
// log a second time.
func Resume(data []byte) (*Log, *Reader, error) {
	buf := append([]byte(nil), data...)
	r, err := OpenLog(buf)
	if err != nil {
		return nil, nil, err
	}
	return &Log{
		buf:  buf,
		seq:  r.Records(),
		segs: r.NumSegments(),
		last: r.LastSortie(),
	}, r, nil
}

// AppendSegmentCtx seals the records as one segment committed at the
// given sortie count (1-based, strictly increasing; empty appends are
// no-ops). The encode runs under a "capture.append" span when ctx
// carries a recorder.
func (l *Log) AppendSegmentCtx(ctx context.Context, sortie int, recs []Record) {
	if len(recs) == 0 {
		return
	}
	_, span := obs.StartSpan(ctx, "capture.append")
	defer span.End()
	l.mu.Lock()
	defer l.mu.Unlock()
	if sortie <= l.last {
		// The engine commits sorties monotonically; a non-monotone append
		// is a caller bug and would make the log unreadable, so drop it
		// rather than poison every future OpenLog.
		span.Bool("dropped", true)
		return
	}
	l.buf = appendSegment(l.buf, sortie, l.seq, recs)
	l.seq += uint64(len(recs))
	l.segs++
	l.last = sortie
	span.Int("sortie", int64(sortie)).Int("records", int64(len(recs))).Int("bytes", int64(len(l.buf)))
}

// Snapshot returns a copy of the complete log bytes (header plus every
// sealed segment) — always independently parseable by OpenLog.
func (l *Log) Snapshot() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.buf...)
}

// Len returns the log's current size in bytes.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Segments returns how many segments have been sealed.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs
}

// Records returns how many records have been sealed.
func (l *Log) Records() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// LastSortie returns the newest sealed sortie count (0 when empty).
func (l *Log) LastSortie() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}
