// rfly-bench measures the flight recorder's overhead and writes it as
// BENCH_obs.json: the disabled-span cost (what the hot chain pays with
// tracing off), the enabled recording cost, the metric primitives and
// the trace encoder. It exits non-zero if the disabled span costs more
// than ten times its budget, so CI can run it as an overhead smoke.
//
// Usage:
//
//	rfly-bench [-short] [-out BENCH_obs.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"rfly/internal/obs"
)

// disabledSpanBudgetNs is the contract ceiling for a StartSpan+End pair
// on a recorder-free context. The committed BENCH_obs.json is held to
// it by the schema test.
const disabledSpanBudgetNs = 25.0

// result is one benchmark row of the report.
type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Note        string  `json:"note,omitempty"`
}

// obsReport is the BENCH_obs.json document.
type obsReport struct {
	GOMAXPROCS int  `json:"gomaxprocs"`
	Short      bool `json:"short"`
	// DisabledSpanNsPerOp duplicates the span_disabled row's ns/op so
	// gating scripts can read one scalar.
	DisabledSpanNsPerOp float64  `json:"disabled_span_ns_per_op"`
	BudgetNs            float64  `json:"budget_ns"`
	Results             []result `json:"results"`
}

// row runs fn with allocation reporting and converts the result.
func row(name, note string, fn func(b *testing.B)) result {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Note:        note,
	}
}

// sampleSpans records a small representative trace for the encoder row.
func sampleSpans(n int) []obs.SpanRecord {
	rec := obs.NewRecorder(n + 8)
	ctx := obs.WithRecorder(context.Background(), rec)
	ctx, root := obs.StartSpan(ctx, "runtime.sortie")
	for i := 0; i < n; i++ {
		_, s := obs.StartSpan(ctx, "sim.read")
		s.Int("attempts", int64(i%4)).Bool("ok", i%3 == 0)
		s.End()
	}
	root.End()
	return rec.Snapshot()
}

// runObs measures every row. short trims the encoder's span count to
// CI-smoke scale.
func runObs(short bool) (*obsReport, error) {
	report := &obsReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Short: short, BudgetNs: disabledSpanBudgetNs}
	span := func(ctx context.Context) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, s := obs.StartSpan(ctx, "sim.read")
				s.Int("attempts", 1)
				s.End()
			}
		}
	}
	bg := context.Background()
	disabled := row("span_disabled", "StartSpan+attr+End on a recorder-free context; the always-on cost", span(bg))
	report.DisabledSpanNsPerOp = disabled.NsPerOp

	ctr := obs.NewRegistry().Counter("bench_total")
	h := obs.NewHistogram([]float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000})
	nSpans := 2048
	if short {
		nSpans = 256
	}
	spans := sampleSpans(nSpans)
	// Encoding is deterministic, so this one checked call covers the
	// unchecked calls in the timed loop.
	if _, err := obs.EncodeTrace(spans); err != nil {
		return nil, fmt.Errorf("trace encode: %w", err)
	}
	report.Results = []result{
		disabled,
		row("span_enabled", "recording into a 1024-slot ring, overwrite-oldest steady state",
			span(obs.WithRecorder(bg, obs.NewRecorder(1024)))),
		row("counter_inc", "", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctr.Inc()
			}
		}),
		row("histogram_observe_duration", "14-bucket latency histogram, the fleet /metrics shape", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h.ObserveDuration(time.Duration(i%5000) * time.Microsecond)
			}
		}),
		row(fmt.Sprintf("trace_encode_spans%d", len(spans)), "", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = obs.EncodeTrace(spans)
			}
		}),
	}
	return report, nil
}

func main() {
	short := flag.Bool("short", false, "CI-smoke scale: fewer spans in the trace-encoder row")
	out := flag.String("out", "BENCH_obs.json", "report path")
	flag.Parse()

	rep, err := runObs(*short)
	if err != nil {
		fail(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	for _, r := range rep.Results {
		fmt.Printf("%-32s %12.1f ns/op %6d allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
	fmt.Printf("report written to %s (GOMAXPROCS=%d, disabled span %.1f ns/op, budget %.0f)\n",
		*out, rep.GOMAXPROCS, rep.DisabledSpanNsPerOp, disabledSpanBudgetNs)
	if rep.DisabledSpanNsPerOp > 10*disabledSpanBudgetNs {
		fail(fmt.Errorf("disabled-span cost %.1f ns/op blows the %.0f ns/op budget tenfold",
			rep.DisabledSpanNsPerOp, disabledSpanBudgetNs))
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rfly-bench: %v\n", err)
	os.Exit(1)
}
