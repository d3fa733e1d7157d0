// Package obs is RFly's flight-recorder observability layer: a
// zero-dependency tracing and metrics subsystem every other layer of the
// stack can afford to call from its hot paths.
//
// Three pieces:
//
//   - Spans. obs.StartSpan(ctx, name) opens a lightweight span parented
//     to the span already in ctx; Span setters attach typed attributes;
//     End() pushes an immutable SpanRecord into the Recorder the context
//     carries. When no Recorder is attached — the default everywhere —
//     StartSpan returns a nil *Span whose methods are no-ops, and the
//     whole call is a single context lookup (a few ns, measured by
//     cmd/rfly-bench). Nothing on a hot path pays for tracing it did not
//     ask for.
//
//   - The flight recorder. A Recorder is a fixed-capacity ring buffer of
//     completed spans: cheap to keep running for an entire sortie, and
//     when something goes wrong the last N spans ARE the incident
//     report. rfly-serve snapshots one per batch and serves it at
//     /v1/missions/{id}/trace; rfly-sim -trace writes one out as a
//     Chrome trace_event file loadable in Perfetto.
//
//   - Metrics. A typed registry of counters, gauges, and fixed-bucket
//     histograms (the generalization of what internal/fleet grew ad
//     hoc), all atomics, safe to bump from any goroutine.
//
// The package also propagates runtime/pprof labels (Labeled) so CPU
// profiles attribute samples to mission/stage, and ships the span-tree
// helpers (BuildTree, Shape) the invariant tests assert against.
package obs

import (
	"context"
	"runtime/pprof"
)

// ctxKey is the single context key the package uses: it holds a
// *spanCtx naming the recorder and the current parent span.
type ctxKey struct{}

// spanCtx is what travels in a context: which recorder to write to and
// which span ID new children parent under (0 = root).
type spanCtx struct {
	rec *Recorder
	id  uint64
}

// WithRecorder returns a context that records spans into rec. Passing a
// nil recorder returns ctx unchanged.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &spanCtx{rec: rec})
}

// RecorderFrom returns the recorder ctx carries, or nil.
func RecorderFrom(ctx context.Context) *Recorder {
	if sc, ok := ctx.Value(ctxKey{}).(*spanCtx); ok {
		return sc.rec
	}
	return nil
}

// StartSpan opens a span named name under the span currently in ctx (or
// as a root when none is open) and returns a context carrying the new
// span as the parent for its children. When ctx has no recorder it
// returns (ctx, nil) — the nil *Span is the no-op span, and every Span
// method is nil-safe, so call sites never branch:
//
//	ctx, sp := obs.StartSpan(ctx, "loc.solve")
//	defer sp.End()
//
// The disabled path is one context lookup and no allocation; its cost
// is measured by cmd/rfly-bench (≤25 ns/op budget) and its allocation
// count is pinned by TestDisabledPathIsNoop.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sc, ok := ctx.Value(ctxKey{}).(*spanCtx)
	if !ok || sc.rec == nil {
		return ctx, nil
	}
	s := sc.rec.start(name, sc.id)
	return context.WithValue(ctx, ctxKey{}, &s.sc), s
}

// Event records an instant (zero-duration) span. Equivalent to
// StartSpan followed by an immediate End; returns nothing because the
// record is already committed.
func Event(ctx context.Context, name string) {
	_, s := StartSpan(ctx, name)
	s.End()
}

// Labeled runs fn with runtime/pprof labels attached to ctx and the
// current goroutine, so CPU profile samples taken inside fn are
// attributed to the given key/value pairs (e.g. "rfly_mission", id,
// "rfly_stage", "sar-solve"). kv must come in pairs; a trailing odd key
// is dropped rather than panicking mid-mission.
func Labeled(ctx context.Context, fn func(context.Context), kv ...string) {
	if len(kv)%2 != 0 {
		kv = kv[:len(kv)-1]
	}
	pprof.Do(ctx, pprof.Labels(kv...), fn)
}
