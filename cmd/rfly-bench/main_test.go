package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchObsSchemaRoundTrip pins the committed BENCH_obs.json to its
// record type: it decodes with unknown-field rejection, holds the
// artifact to the disabled-span budget, and re-marshals without loss, so
// a drive-by edit to either the struct tags or the artifact fails here.
func TestBenchObsSchemaRoundTrip(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_obs.json"))
	if err != nil {
		t.Fatalf("committed artifact: %v", err)
	}
	var rep obsReport
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("BENCH_obs.json does not match its record type: %v", err)
	}
	if rep.GOMAXPROCS < 1 {
		t.Fatalf("gomaxprocs %d", rep.GOMAXPROCS)
	}
	if len(rep.Results) < 5 {
		t.Fatalf("only %d result rows", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.Name == "" || r.NsPerOp <= 0 {
			t.Fatalf("malformed row %+v", r)
		}
	}
	if rep.DisabledSpanNsPerOp <= 0 || rep.DisabledSpanNsPerOp > disabledSpanBudgetNs {
		t.Fatalf("committed disabled-span cost %.2f ns/op exceeds the %v ns/op budget",
			rep.DisabledSpanNsPerOp, disabledSpanBudgetNs)
	}
	if rep.BudgetNs != disabledSpanBudgetNs {
		t.Fatalf("artifact budget %v, code budget %v", rep.BudgetNs, disabledSpanBudgetNs)
	}

	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back obsReport
	dec = json.NewDecoder(bytes.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if back.GOMAXPROCS != rep.GOMAXPROCS || len(back.Results) != len(rep.Results) {
		t.Fatal("round-trip lost fields")
	}
	for i := range rep.Results {
		if back.Results[i] != rep.Results[i] {
			t.Fatalf("row %d changed in round-trip: %+v vs %+v", i, back.Results[i], rep.Results[i])
		}
	}
}

// TestRunObsReport runs the short report end to end: every row is
// well formed, the disabled span does not allocate, and it stays within
// the same tenfold budget headroom rfly-bench exits non-zero on.
func TestRunObsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("times five benchmark rows")
	}
	rep, err := runObs(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOMAXPROCS < 1 || len(rep.Results) < 5 {
		t.Fatalf("report %d procs, %d rows", rep.GOMAXPROCS, len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.Name == "" || r.NsPerOp <= 0 {
			t.Fatalf("malformed row %+v", r)
		}
	}
	if rep.DisabledSpanNsPerOp > 10*disabledSpanBudgetNs {
		t.Fatalf("disabled span costs %.1f ns/op, budget %v ns/op (10x headroom exceeded)",
			rep.DisabledSpanNsPerOp, disabledSpanBudgetNs)
	}
	if disabled := rep.Results[0]; disabled.AllocsPerOp != 0 {
		t.Fatalf("disabled span path allocates %d/op; must be alloc-free", disabled.AllocsPerOp)
	}
}
