package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"rfly/internal/fleet"
	"rfly/internal/obs"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	span := func(id, parent uint64, name string, start, end int64) obs.SpanRecord {
		return obs.SpanRecord{ID: id, Parent: parent, Name: name, StartNs: start, DurNs: end - start}
	}
	f := newFold()
	f.add([]obs.SpanRecord{
		// Two parallel stripes overlapping on [30,50], one nested span
		// inside a stripe, and a child overrunning its parent's end.
		span(1, 0, "add", 0, 100),
		span(2, 1, "stripe", 10, 50),
		span(3, 1, "stripe", 30, 70),
		span(4, 2, "inner", 20, 30),
		span(5, 1, "late", 90, 120),
	})
	want := map[string]int64{
		"add":    100 - 60 - 10, // stripes cover [10,70], "late" is clipped to [90,100]
		"stripe": (40 - 10) + 40,
		"inner":  10,
		"late":   30,
	}
	for name, ns := range want {
		if got := f.selfNs[name]; got != ns {
			t.Errorf("%s self = %d ns, want %d", name, got, ns)
		}
	}
	if f.count["stripe"] != 2 {
		t.Errorf("stripe count = %d, want 2", f.count["stripe"])
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted
	}
	if s := percentile(xs, 50); s.null() || s.Value != 50 || s.N != 100 {
		t.Errorf("p50 of 1..100 = %+v, want 50 over 100 samples", s)
	}
	if s := percentile(xs, 90); s.null() || s.Value != 90 {
		t.Errorf("p90 of 1..100 = %+v, want 90 (10 samples beyond)", s)
	}
	if s := percentile(xs[:99], 90); !s.null() || s.N != 99 || !strings.Contains(s.Null, "beyond") {
		t.Errorf("p90 of 99 samples = %+v, want null: only 9 lie beyond", s)
	}
	if s := percentile(xs[:20], 50); s.null() {
		t.Errorf("p50 of 20 samples = %+v, want a value: 10 lie beyond", s)
	}
	if s := percentile(nil, 50); !s.null() {
		t.Errorf("p50 of nothing = %+v, want null", s)
	}
}

func TestWindowRateSpreadsOpsOverTheirLives(t *testing.T) {
	start := time.Now()
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	ops := []*op{
		{due: at(0), doneAt: at(1000), class: completed},   // half an op in each window
		{due: at(-500), doneAt: at(500), class: completed}, // started before the phase: half an op in the first
		{due: at(0), doneAt: at(500), class: failed},       // not counted
	}
	// The windows hold 1 and 0.5 ops, so 2/s and 1/s.
	if got := windowRate(ops, start, time.Second); got.null() || got.N != 2 || math.Abs(got.Value-1.5) > 1e-9 {
		t.Errorf("windowRate = %+v, want the median of 2/s and 1/s over 2 windows", got)
	}
	if got := windowRate(ops, start, 100*time.Millisecond); !got.null() {
		t.Errorf("windowRate of a phase shorter than a window = %+v, want null", got)
	}
}

// drawn is everything a workload sends for one seed.
func drawn(w *workload, seed uint64) []fleet.SubmitRequest {
	var out []fleet.SubmitRequest
	for _, a := range newGen(w, seed, "open").arrivals(10 * time.Second) {
		out = append(out, a.req)
	}
	g := newGen(w, seed, "closed")
	for range 50 {
		out = append(out, g.next())
	}
	return out
}

func TestRequestsSeededAndInBounds(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := drawn(w, 7), drawn(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed drew different requests", w.name)
		}
		if reflect.DeepEqual(a, drawn(w, 8)) {
			t.Errorf("%s: seeds 7 and 8 drew the same requests", w.name)
		}
		for _, req := range a {
			reg := fleet.Regions[req.Region]
			if req.Seed == 0 || len(req.Tags) == 0 || req.Exclusive != w.sar {
				t.Fatalf("%s: malformed request %+v", w.name, req)
			}
			for _, tag := range req.Tags {
				if tag.X < 0 || tag.X > reg.CorridorLengthM || tag.Y < 0 || tag.Y > reg.CorridorWidthM || tag.Z <= 0 {
					t.Fatalf("%s: tag %+v outside region %s (%g×%g m)", w.name, tag, req.Region,
						reg.CorridorLengthM, reg.CorridorWidthM)
				}
			}
		}
	}
}

func TestOpenLoopScheduleMatchesRate(t *testing.T) {
	for _, name := range []string{"locate", "inventory"} {
		w, _ := workloadByName(name)
		arr := newGen(w, 1, "open").arrivals(30 * time.Second)
		if want := int(w.rate * 30); len(arr) != want {
			t.Errorf("%s: %d arrivals, want %d", name, len(arr), want)
		}
		span := arr[len(arr)-1].at.Seconds()
		if span < 25 || span > 35 {
			t.Errorf("%s: %d arrivals span %.1f s, want about 30 s", name, len(arr), span)
		}
		if !slices.IsSortedFunc(arr, func(a, b arrival) int { return cmp.Compare(a.at, b.at) }) {
			t.Errorf("%s: schedule not in time order", name)
		}
	}
}

func TestShortRunPassesGates(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload for about 10 s")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-short"}, &out, &errb); code != 0 {
		t.Fatalf("bench -short exited %d\n%s\n%s", code, out.String(), errb.String())
	}
	res := lastLine(t, out.String())
	for _, w := range workloads {
		for _, d := range endToEnd {
			if _, ok := res.Metrics[w.name+"."+d.name]; !ok {
				t.Errorf("result lacks %s.%s", w.name, d.name)
			}
		}
	}
	if res.Attempted == 0 || res.Failed != 0 {
		t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
}

func TestShortTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a workload and its probes")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-short", "-workload", "federate", "-trace", "1"}, &out, &errb); code != 0 {
		t.Fatalf("bench -short -trace 1 exited %d\n%s\n%s", code, out.String(), errb.String())
	}
	res := lastLine(t, out.String())
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced result has %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	for _, name := range []string{"fed.route.count_per_op", "loc.stream.add.self_ms_per_op", "runtime.sortie_ms_p50",
		"federation.replicated_per_op", "capture.log_bytes"} {
		if v := res.Metrics[name]; v.Value == nil || *v.Value <= 0 {
			t.Errorf("%s = %v, want a positive reading", name, v.Value)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-trace", "2"}, {"-workload", "bogus"}, {"-seconds", "0"}, {"extra"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run %v exited %d, want 2", args, code)
		}
	}
}

// TestContractMatchesBenchmarkJSON keeps the metric and workload lists
// in the code and in the repository's BENCHMARK.json the same.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var c struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayer)
}

func lastLine(t *testing.T, out string) summary {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	if !res.Correct {
		t.Errorf("result not correct:\n%s", out)
	}
	return res
}
