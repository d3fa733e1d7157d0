package capture

import (
	"context"
	"errors"
	"go/parser"
	"go/token"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rfly/internal/geom"
	"rfly/internal/loc"
	"rfly/internal/signal"
)

const f900 = 915e6

func testHeader() Header {
	return Header{
		ChannelHz:  f900,
		Region:     loc.Region{X0: -2, Y0: 0.2, X1: 2, Y1: 3},
		Seed:       99,
		ConfigHash: 0xDEADBEEFCAFE,
	}
}

// synthRecords builds ideal disentangled channels along an aperture line
// for a tag at tagPos: h = amp·e^{−j4πf·d/c}, the same model the loc
// package's own tests use.
func synthRecords(n int, sortie int, tagPos geom.Point) []Record {
	k := 4 * math.Pi * f900 / signal.C
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		x := -1.0 + 2.0*float64(i)/float64(n-1)
		p := geom.P(x, 0, 0.8)
		d := p.Dist(tagPos)
		amp := 1 / (d * d)
		recs = append(recs, Record{
			T:     float64(sortie*25) + float64(i)/float64(n+1),
			Pos:   p,
			H:     cmplx.Rect(amp, -k*d),
			SNRdB: 18.5,
		})
	}
	return recs
}

func TestLogRoundTrip(t *testing.T) {
	ctx := context.Background()
	tag := geom.P(0.5, 1.5, 0)
	l := NewLog(testHeader())
	s1 := synthRecords(8, 1, tag)
	s1[3].Unlocked = true
	s1[4].SNRdB = math.NaN()
	l.AppendSegmentCtx(ctx, 1, s1)
	l.AppendSegmentCtx(ctx, 2, nil) // empty sortie: no segment
	l.AppendSegmentCtx(ctx, 3, synthRecords(5, 3, tag))

	if got := l.Segments(); got != 2 {
		t.Fatalf("Segments() = %d, want 2", got)
	}
	if got := l.Records(); got != 13 {
		t.Fatalf("Records() = %d, want 13", got)
	}

	r, err := OpenLog(l.Snapshot())
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	if r.Header() != testHeader() {
		t.Fatalf("header round-trip: got %+v", r.Header())
	}
	if r.NumSegments() != 2 || r.Records() != 13 || r.LastSortie() != 3 {
		t.Fatalf("index: %d segments, %d records, last sortie %d",
			r.NumSegments(), r.Records(), r.LastSortie())
	}
	seg := r.Segment(0)
	if seg.Sortie() != 1 || seg.Count() != 8 || seg.BaseSeq() != 0 {
		t.Fatalf("segment 0 frame: sortie %d count %d base %d", seg.Sortie(), seg.Count(), seg.BaseSeq())
	}
	if got := r.Segment(1).BaseSeq(); got != 8 {
		t.Fatalf("segment 1 base seq = %d, want 8", got)
	}
	for i, want := range s1 {
		v := seg.Record(i)
		if v.Pos() != want.Pos || v.H() != want.H || v.T() != want.T || v.Unlocked() != want.Unlocked {
			t.Fatalf("record %d round-trip mismatch", i)
		}
		if math.Float64bits(v.SNRdB()) != math.Float64bits(want.SNRdB) {
			t.Fatalf("record %d SNR bits changed (NaN payload must survive)", i)
		}
	}
	m := seg.Record(3).Measurement()
	if !m.Unlocked || m.Pos != s1[3].Pos {
		t.Fatalf("Measurement() dropped fields: %+v", m)
	}
	if got := len(r.Measurements()); got != 13 {
		t.Fatalf("Measurements() len = %d", got)
	}
}

// TestZeroCopyReadPath pins the tentpole property: iterating every
// record through the view accessors allocates nothing.
func TestZeroCopyReadPath(t *testing.T) {
	ctx := context.Background()
	tag := geom.P(0.5, 1.5, 0)
	l := NewLog(testHeader())
	for s := 1; s <= 4; s++ {
		l.AppendSegmentCtx(ctx, s, synthRecords(16, s, tag))
	}
	r, err := OpenLog(l.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var sink complex128
	var locked int
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < r.NumSegments(); i++ {
			seg := r.Segment(i)
			for j := 0; j < seg.Count(); j++ {
				v := seg.Record(j)
				sink += v.H() * complex(v.T()-v.Pos().X, 0)
				if !v.Unlocked() {
					locked++
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("record read path allocated %.1f times per pass, want 0", allocs)
	}
	if sink == 0 || locked == 0 {
		t.Fatal("read loop optimized away")
	}
}

func TestResumeContinuesSequence(t *testing.T) {
	ctx := context.Background()
	tag := geom.P(0.5, 1.5, 0)
	l := NewLog(testHeader())
	l.AppendSegmentCtx(ctx, 1, synthRecords(6, 1, tag))
	snap := l.Snapshot()

	l2, _, err := Resume(snap)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	l2.AppendSegmentCtx(ctx, 2, synthRecords(4, 2, tag))
	r, err := OpenLog(l2.Snapshot())
	if err != nil {
		t.Fatalf("OpenLog after resume: %v", err)
	}
	if r.NumSegments() != 2 || r.Records() != 10 || r.Segment(1).BaseSeq() != 6 {
		t.Fatalf("resume did not continue the sequence: %d segs, %d recs, base %d",
			r.NumSegments(), r.Records(), r.Segment(1).BaseSeq())
	}

	snap[len(snap)-1] ^= 0x40
	if _, _, err := Resume(snap); !errors.Is(err, ErrInvalidLog) {
		t.Fatalf("Resume on corrupt bytes = %v, want ErrInvalidLog", err)
	}
}

func TestAppendMonotoneGuard(t *testing.T) {
	ctx := context.Background()
	tag := geom.P(0.5, 1.5, 0)
	l := NewLog(testHeader())
	l.AppendSegmentCtx(ctx, 2, synthRecords(4, 2, tag))
	l.AppendSegmentCtx(ctx, 2, synthRecords(4, 2, tag)) // duplicate: dropped
	l.AppendSegmentCtx(ctx, 1, synthRecords(4, 1, tag)) // regression: dropped
	if got := l.Segments(); got != 1 {
		t.Fatalf("non-monotone appends must drop: %d segments", got)
	}
	if _, err := OpenLog(l.Snapshot()); err != nil {
		t.Fatalf("log poisoned by dropped appends: %v", err)
	}
}

func TestDecodeRejections(t *testing.T) {
	ctx := context.Background()
	tag := geom.P(0.5, 1.5, 0)
	l := NewLog(testHeader())
	l.AppendSegmentCtx(ctx, 1, synthRecords(6, 1, tag))
	good := l.Snapshot()
	segStart := headerSize

	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrLogTruncated},
		{"short header", good[:headerSize-1], ErrLogTruncated},
		{"bad magic", mut(func(b []byte) { b[0] = 'X' }), ErrInvalidLog},
		{"bad header version", mut(func(b []byte) { b[4] = 0xFF }), ErrInvalidLog},
		{"header reserved", mut(func(b []byte) { b[6] = 1 }), ErrInvalidLog},
		{"header CRC flip", mut(func(b []byte) { b[10] ^= 0x01 }), ErrLogCRC},
		{"segment magic", mut(func(b []byte) { b[segStart] = 'X' }), ErrInvalidLog},
		{"segment version", mut(func(b []byte) { b[segStart+4] = 9 }), ErrInvalidLog},
		{"segment reserved", mut(func(b []byte) { b[segStart+6] = 1 }), ErrInvalidLog},
		{"truncated frame", good[:len(good)-RecordSize], ErrLogTruncated},
		{"segment CRC flip", mut(func(b []byte) { b[len(b)-1] ^= 0x80 }), ErrLogCRC},
		{"undefined flag bits", mut(func(b []byte) { b[segStart+segHdrSize+56] |= 0x02 }), ErrInvalidLog},
		{"nonzero record pad", mut(func(b []byte) { b[segStart+segHdrSize+60] = 7 }), ErrInvalidLog},
		{"trailing garbage", append(append([]byte(nil), good...), 0xAB), ErrLogTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := OpenLog(tc.data)
			if err == nil {
				t.Fatal("accepted corrupt log")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("degenerate header region", func(t *testing.T) {
		h := testHeader()
		h.Region.X1 = h.Region.X0
		if _, err := OpenLog(NewLog(h).Snapshot()); !errors.Is(err, ErrInvalidLog) {
			t.Fatalf("degenerate region accepted: %v", err)
		}
	})
	t.Run("non-monotone sortie", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b = appendSegment(b, 1, 6, synthRecords(3, 1, tag))
		if _, err := OpenLog(b); !errors.Is(err, ErrInvalidLog) {
			t.Fatalf("repeated sortie accepted: %v", err)
		}
	})
	t.Run("base seq discontinuity", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b = appendSegment(b, 2, 7, synthRecords(3, 2, tag))
		if _, err := OpenLog(b); !errors.Is(err, ErrInvalidLog) {
			t.Fatalf("broken sequence accepted: %v", err)
		}
	})
}

// TestNoSimOnReplayPath pins the acceptance criterion that replay needs
// no simulator: neither this package nor cmd/rfly-replay may import the
// sim or runtime packages.
func TestNoSimOnReplayPath(t *testing.T) {
	dirs := []string{".", filepath.Join("..", "..", "cmd", "rfly-replay")}
	banned := map[string]bool{"rfly/internal/sim": true, "rfly/internal/runtime": true}
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		for _, ent := range entries {
			name := ent.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if banned[p] {
					t.Errorf("%s imports %s: the replay path must reconstruct missions from the log alone", path, p)
				}
			}
		}
	}
}
