package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestDisabledPathIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatal("StartSpan without a recorder must return a nil span")
	}
	if ctx2 != ctx {
		t.Fatal("disabled StartSpan must return the context unchanged")
	}
	// Every method on the nil span is a no-op, not a panic.
	sp.Str("k", "v").Int("i", 1).Float("f", 2).Bool("b", true).SetTrack(3)
	sp.End()
	sp.End()
	Event(ctx, "instant")
	if RecorderFrom(ctx) != nil {
		t.Fatal("RecorderFrom on a bare context must be nil")
	}
	// The disabled span is left in the hot chain permanently, so it must
	// not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		_, s := StartSpan(ctx, "sim.read")
		s.Int("attempts", 1)
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan+Int+End: %v allocs/op, want 0", allocs)
	}
}

func TestSpanRecordingAndTree(t *testing.T) {
	rec := NewRecorder(0)
	ctx := WithRecorder(context.Background(), rec)
	if RecorderFrom(ctx) != rec {
		t.Fatal("RecorderFrom lost the recorder")
	}

	ctx1, root := StartSpan(ctx, "sortie")
	root.Int("sortie", 2)
	ctx2, child := StartSpan(ctx1, "read")
	child.Bool("ok", true)
	_, grand := StartSpan(ctx2, "relock")
	grand.Float("freq_hz", 920e6).End()
	child.End()
	// A sibling under the root after the first child ended.
	_, sib := StartSpan(ctx1, "checkpoint")
	sib.End()
	root.End()

	recs := rec.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(recs))
	}
	// Records commit at End: relock, read, checkpoint, sortie.
	wantOrder := []string{"relock", "read", "checkpoint", "sortie"}
	for i, w := range wantOrder {
		if recs[i].Name != w {
			t.Fatalf("record %d is %q, want %q", i, recs[i].Name, w)
		}
	}

	tree, err := BuildTree(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Name != "sortie" {
		t.Fatalf("roots %v", tree.Roots)
	}
	if err := tree.CheckEnclosure(); err != nil {
		t.Fatal(err)
	}
	relocks := tree.Find("relock")
	if len(relocks) != 1 {
		t.Fatalf("found %d relock spans", len(relocks))
	}
	if anc := tree.Ancestor(relocks[0], "sortie"); anc == nil || anc.Name != "sortie" {
		t.Fatal("relock must have a sortie ancestor")
	}
	if anc := tree.Ancestor(relocks[0], "read"); anc == nil {
		t.Fatal("relock's direct parent must be the read span")
	}
	if a, ok := relocks[0].Attr("freq_hz"); !ok || a.Num != 920e6 {
		t.Fatalf("relock attr %+v", relocks[0].Attrs)
	}
	if a, ok := tree.Find("sortie")[0].Attr("sortie"); !ok || a.Num != 2 {
		t.Fatal("sortie attr lost")
	}
}

func TestAttrsAfterEndDropped(t *testing.T) {
	rec := NewRecorder(0)
	ctx := WithRecorder(context.Background(), rec)
	_, sp := StartSpan(ctx, "s")
	sp.End()
	sp.Str("late", "x")
	sp.End() // idempotent: must not push twice
	recs := rec.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	if len(recs[0].Attrs) != 0 {
		t.Fatalf("attr set after End leaked: %+v", recs[0].Attrs)
	}
}

func TestRingEviction(t *testing.T) {
	rec := NewRecorder(4)
	ctx := WithRecorder(context.Background(), rec)
	for i := 0; i < 10; i++ {
		_, sp := StartSpan(ctx, fmt.Sprintf("s%d", i))
		sp.End()
	}
	if rec.Len() != 4 {
		t.Fatalf("ring holds %d, want 4", rec.Len())
	}
	if rec.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", rec.Dropped())
	}
	recs := rec.Snapshot()
	want := []string{"s6", "s7", "s8", "s9"}
	for i, w := range want {
		if recs[i].Name != w {
			t.Fatalf("snapshot[%d] = %q, want %q (oldest-first)", i, recs[i].Name, w)
		}
	}
}

func TestHistogramSemantics(t *testing.T) {
	bounds := []float64{1, 2, 5}
	h := NewHistogram(bounds)
	// Bucket i counts v <= bounds[i]: 1ms lands in bucket 0 (v > bound
	// moves right, equality stays).
	h.Observe(1)
	h.Observe(1.5)
	h.Observe(4)
	h.Observe(100) // overflow
	snap := h.Snapshot()
	wantBuckets := []int64{1, 1, 1, 1}
	for i, w := range wantBuckets {
		if snap.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, snap.Buckets[i], w, snap.Buckets)
		}
	}
	if snap.Count != 4 {
		t.Fatalf("count %d", snap.Count)
	}
	// Quantiles are bucket upper bounds; overflow reports the largest
	// boundary — the exact semantics fleet's /metrics always had.
	if got := h.Quantile(0.50); got != 2 {
		t.Fatalf("p50 %v, want 2", got)
	}
	if got := h.Quantile(0.99); got != 5 {
		t.Fatalf("p99 %v, want 5 (overflow reports largest bound)", got)
	}
	if snap.Mean != (1+1.5+4+100)/4 {
		t.Fatalf("mean %v", snap.Mean)
	}

	// ObserveDuration keeps the microsecond-truncated integer sum.
	hd := NewHistogram(bounds)
	hd.ObserveDuration(1500 * time.Microsecond)
	hd.ObserveDuration(2500*time.Microsecond + 999*time.Nanosecond)
	if got, want := hd.Mean(), (1.5+2.5)/2; got != want {
		t.Fatalf("duration mean %v, want %v", got, want)
	}

	// Empty histogram renders zeros, not NaN.
	e := NewHistogram(bounds).Snapshot()
	if e.Count != 0 || e.Mean != 0 || e.P99 != 0 {
		t.Fatalf("empty snapshot %+v", e)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("relocks")
	c.Inc()
	c.Add(2)
	if r.Counter("relocks") != c {
		t.Fatal("counter identity not stable")
	}
	g := r.Gauge("queue_depth")
	g.Set(7.5)
	h := r.Histogram("lat", []float64{1, 10})
	h.Observe(3)
	if r.Histogram("lat", []float64{99}) != h {
		t.Fatal("histogram identity not stable")
	}

	snap := r.Snapshot()
	if snap.Counters["relocks"] != 3 {
		t.Fatalf("counters %+v", snap.Counters)
	}
	if snap.Gauges["queue_depth"] != 7.5 {
		t.Fatalf("gauges %+v", snap.Gauges)
	}
	if snap.Histograms["lat"].Count != 1 {
		t.Fatalf("histograms %+v", snap.Histograms)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
}

func TestTraceEventRoundTrip(t *testing.T) {
	rec := NewRecorder(0)
	ctx := WithRecorder(context.Background(), rec)
	ctx1, root := StartSpan(ctx, "fleet.batch")
	root.Str("region", "corridor-east").Int("size", 2)
	_, a := StartSpan(ctx1, "runtime.sortie")
	a.Bool("aborted", false).SetTrack(2)
	a.End()
	root.End()

	recs := rec.Snapshot()
	data, err := EncodeTrace(recs)
	if err != nil {
		t.Fatal(err)
	}
	// The document must be a valid trace_event file shape.
	var tf TraceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.TraceEvents) != 2 || tf.TraceEvents[0].Ph != "X" || tf.TraceEvents[0].PID != tracePID {
		t.Fatalf("trace events %+v", tf.TraceEvents)
	}

	back, err := ParseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round-trip %d records, want %d", len(back), len(recs))
	}
	origTree, err := BuildTree(recs)
	if err != nil {
		t.Fatal(err)
	}
	backTree, err := BuildTree(back)
	if err != nil {
		t.Fatal(err)
	}
	if origTree.Shape() != backTree.Shape() {
		t.Fatalf("shape changed:\n%s\nvs\n%s", origTree.Shape(), backTree.Shape())
	}
	sortie := backTree.Find("runtime.sortie")[0]
	if sortie.Track != 2 {
		t.Fatalf("track lost: %d", sortie.Track)
	}
	if a, ok := sortie.Attr("aborted"); !ok || a.Kind != KindBool || a.Num != 0 {
		t.Fatalf("bool attr lost: %+v", sortie.Attrs)
	}
	reg, ok := backTree.Find("fleet.batch")[0].Attr("region")
	if !ok || reg.Str != "corridor-east" {
		t.Fatal("string attr lost")
	}
}

func TestShapeIgnoresSiblingOrderAndTimes(t *testing.T) {
	mk := func(order []int) string {
		recs := []SpanRecord{
			{ID: 1, Name: "root", StartNs: 0, DurNs: 100},
			{ID: 2, Parent: 1, Name: "stripe", StartNs: int64(10 * order[0]), DurNs: 5},
			{ID: 3, Parent: 1, Name: "stripe", StartNs: int64(10 * order[1]), DurNs: 5},
			{ID: 4, Parent: 1, Name: "solve", StartNs: int64(10 * order[2]), DurNs: 5},
		}
		tr, err := BuildTree(recs)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Shape()
	}
	if mk([]int{1, 2, 3}) != mk([]int{3, 1, 2}) {
		t.Fatal("shape must not depend on sibling timing/order")
	}
}

func TestBuildTreeRejectsDuplicateIDs(t *testing.T) {
	_, err := BuildTree([]SpanRecord{{ID: 1, Name: "a"}, {ID: 1, Name: "b"}})
	if err == nil {
		t.Fatal("duplicate IDs must be rejected")
	}
}

// TestConcurrentRecording exercises the ring buffer, registry, and span
// lifecycle from many goroutines; its real assertion is the repo-wide
// -race gate.
func TestConcurrentRecording(t *testing.T) {
	rec := NewRecorder(64)
	reg := NewRegistry()
	ctx := WithRecorder(context.Background(), rec)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := reg.Counter("spans")
			h := reg.Histogram("lat", []float64{1, 10, 100})
			for i := 0; i < 200; i++ {
				sctx, sp := StartSpan(ctx, "worker")
				sp.Int("g", int64(g)).SetTrack(g)
				_, inner := StartSpan(sctx, "inner")
				inner.End()
				sp.End()
				c.Inc()
				h.Observe(float64(i % 7))
			}
		}(g)
	}
	wg.Wait()
	if rec.Len() != 64 {
		t.Fatalf("ring holds %d, want 64", rec.Len())
	}
	if got := rec.Dropped() + int64(rec.Len()); got != 8*200*2 {
		t.Fatalf("dropped+held = %d, want %d", got, 8*200*2)
	}
	if reg.Counter("spans").Load() != 1600 {
		t.Fatal("counter lost increments")
	}
	if _, err := BuildTree(rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
}
