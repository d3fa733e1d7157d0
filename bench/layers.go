package main

import (
	"cmp"
	"context"
	"math"
	"slices"
	"time"

	"rfly/internal/capture"
	"rfly/internal/federation"
	"rfly/internal/fleet"
	"rfly/internal/loc"
	"rfly/internal/obs"
	"rfly/internal/runtime"
)

// spanNames are the spans the program already emits on the mission
// path; a traced run folds each into self time and count per op.
var spanNames = []string{
	"runtime.sortie", "sim.read", "reader.round", "relay.relock", "sim.sar_collect",
	"runtime.sar_pass", "loc.stream.add", "loc.stripe", "loc.stream.snapshot",
	"capture.append", "runtime.checkpoint", "fleet.batch", "fleet.admit", "fleet.demux",
	"fed.route",
}

// fold accumulates span self time and counts by span name.
type fold struct {
	selfNs map[string]int64
	count  map[string]int64
}

func newFold() *fold { return &fold{selfNs: map[string]int64{}, count: map[string]int64{}} }

// add folds the spans of one recorder. A span's self time is its
// duration minus the union of its children's intervals, clipped to the
// span: children that run in parallel (the loc.stripe workers under
// loc.stream.add) overlap, and subtracting each child's duration would
// count the overlap twice.
func (f *fold) add(recs []obs.SpanRecord) {
	kids := make(map[uint64][][2]int64)
	for _, r := range recs {
		if r.Parent != 0 {
			kids[r.Parent] = append(kids[r.Parent], [2]int64{r.StartNs, r.EndNs()})
		}
	}
	for _, r := range recs {
		f.selfNs[r.Name] += r.DurNs - covered(r.StartNs, r.EndNs(), kids[r.ID])
		f.count[r.Name]++
	}
}

// covered is how much of [lo, hi] the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	var total, end int64 = 0, lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

func (f *fold) put(m *metricSet, ops int) {
	for _, name := range spanNames {
		m.put(name+".self_ms_per_op", "ms", ratio(ms(f.selfNs[name]), float64(ops)))
		m.put(name+".count_per_op", "count", ratio(float64(f.count[name]), float64(ops)))
	}
}

// probes times calls into the runtime, loc and capture packages on
// missions the bench flies itself, one call at a time on an idle system.
type probes struct {
	sortieMs, ckptMs, ckptBytes, liveMs, resultMs, restoreMs []float64
	snapshotMs, replayMs, logBytes                           []float64
	addNs, captures, appendNs, records                       int64
}

// fly flies one mission piecewise through the runtime's public calls,
// then re-solves and re-writes its capture log through loc and capture.
func (p *probes) fly(ctx context.Context, cfg runtime.Config) error {
	e, err := runtime.New(cfg)
	if err != nil {
		return err
	}
	var mid []byte
	for e.SortiesDone() < cfg.Sorties {
		t := time.Now()
		if _, err := e.RunSortie(ctx); err != nil {
			return err
		}
		p.sortieMs = append(p.sortieMs, msSince(t))
		t = time.Now()
		ckpt := e.SnapshotCtx(ctx)
		p.ckptMs = append(p.ckptMs, msSince(t))
		p.ckptBytes = append(p.ckptBytes, float64(len(ckpt)))
		if e.SortiesDone() == min(resumeAt, cfg.Sorties) {
			mid = ckpt
		}
		if cfg.SARPointsPerSortie > 0 {
			t = time.Now()
			e.LiveEstimateCtx(ctx)
			p.liveMs = append(p.liveMs, msSince(t))
		}
	}
	t := time.Now()
	e.ResultCtx(ctx)
	p.resultMs = append(p.resultMs, msSince(t))
	t = time.Now()
	if _, err := runtime.Restore(cfg, mid); err != nil {
		return err
	}
	p.restoreMs = append(p.restoreMs, msSince(t))

	data := e.CaptureLog()
	if data == nil {
		return nil
	}
	return p.capture(ctx, data)
}

// capture feeds a recorded log's apertures back through a fresh stream
// solver and a fresh capture writer, then replays it whole.
func (p *probes) capture(ctx context.Context, data []byte) error {
	rd, err := capture.OpenLog(data)
	if err != nil {
		return err
	}
	solver, err := loc.NewRobustStreamSolver(rd.Header().Config(capture.LiveOptions()))
	if err != nil {
		return err
	}
	log := capture.NewLog(rd.Header())
	for i := range rd.NumSegments() {
		seg := rd.Segment(i)
		batch := make([]loc.Measurement, seg.Count())
		recs := make([]capture.Record, seg.Count())
		for j := range recs {
			v := seg.Record(j)
			batch[j] = v.Measurement()
			recs[j] = capture.Record{T: v.T(), Pos: v.Pos(), H: v.H(), SNRdB: v.SNRdB(), Unlocked: v.Unlocked()}
		}
		t := time.Now()
		solver.AddBatch(ctx, batch)
		p.addNs += time.Since(t).Nanoseconds()
		p.captures += int64(len(batch))
		t = time.Now()
		log.AppendSegmentCtx(ctx, seg.Sortie(), recs)
		p.appendNs += time.Since(t).Nanoseconds()
		p.records += int64(len(recs))
	}
	t := time.Now()
	if _, err := solver.Snapshot(ctx); err != nil {
		return err
	}
	p.snapshotMs = append(p.snapshotMs, msSince(t))
	t = time.Now()
	if _, err := capture.Replay(ctx, data, capture.LiveOptions()); err != nil {
		return err
	}
	p.replayMs = append(p.replayMs, msSince(t))
	p.logBytes = append(p.logBytes, float64(len(data)))
	return nil
}

func (p *probes) put(m *metricSet) {
	m.put("runtime.sortie_ms_p50", "ms", percentile(p.sortieMs, 50))
	m.put("runtime.checkpoint_encode_ms_p50", "ms", percentile(p.ckptMs, 50))
	m.put("runtime.checkpoint_bytes", "bytes", mean(p.ckptBytes))
	m.put("runtime.restore_ms_p50", "ms", percentile(p.restoreMs, 50))
	m.put("runtime.result_ms_p50", "ms", percentile(p.resultMs, 50))
	if len(p.logBytes) == 0 {
		return // no SAR: the loc and capture layers are not on the path
	}
	m.put("runtime.live_estimate_ms_p50", "ms", percentile(p.liveMs, 50))
	m.put("loc.stream_add_us_per_capture", "us", ratio(float64(p.addNs)/1e3, float64(p.captures)))
	m.put("loc.snapshot_ms_p50", "ms", percentile(p.snapshotMs, 50))
	m.put("capture.append_us_per_record", "us", ratio(float64(p.appendNs)/1e3, float64(p.records)))
	m.put("capture.log_bytes", "bytes", mean(p.logBytes))
	m.put("capture.replay_ms_p50", "ms", percentile(p.replayMs, 50))
}

// counters are the layers' cumulative counters at one instant.
type counters struct {
	fleet []fleet.Snapshot // per node
	coord federation.MetricsSnapshot
}

func (st *stack) counters() counters {
	var c counters
	for _, n := range st.nodes {
		c.fleet = append(c.fleet, n.sched.Metrics().Snapshot())
	}
	if st.coord != nil {
		c.coord = st.coord.Metrics().Snapshot()
	}
	return c
}

// takeRoutes returns each node's and the coordinator's route counts
// since the last take, and resets them.
func (st *stack) takeRoutes() (nodes []map[string]routeStat, front map[string]routeStat) {
	for _, n := range st.nodes {
		nodes = append(nodes, n.routes.take())
	}
	if st.fed != nil {
		front = st.fed.take()
	}
	return nodes, front
}

// phaseReadings are the layer counters read around one measured phase.
type phaseReadings struct {
	wall          time.Duration
	before, after counters
	nodeRt        []map[string]routeStat // per node
	fedRt         map[string]routeStat   // coordinator; nil without one
}

// putServing adds the fleet and federation layer metrics of one open
// phase.
func putServing(m *metricSet, ops []*op, r *phaseReadings) {
	done := float64(count(ops, completed))
	var accept, wait, run, lag []float64
	for _, o := range ops {
		if o.class != completed {
			continue
		}
		v := o.res.view
		accept = append(accept, ms(v.Submitted.Sub(o.due).Nanoseconds()))
		wait = append(wait, ms(v.Started.Sub(v.Submitted).Nanoseconds()))
		run = append(run, ms(v.Finished.Sub(v.Started).Nanoseconds()))
		lag = append(lag, ms(o.doneAt.Sub(v.Finished).Nanoseconds()))
	}
	var submitMs []float64
	var batches, batchSum, batched, rejected, submitted, ckpts, busyS float64
	var shards int
	var nodeReqs, nodeOut, nodeBusyNs, replicaIn, captureIn float64
	for i := range r.after.fleet {
		a, b := r.before.fleet[i], r.after.fleet[i]
		batches += float64(b.Batches - a.Batches)
		batchSum += float64(b.Batches)*b.MeanBatchSize - float64(a.Batches)*a.MeanBatchSize
		batched += float64(b.BatchedRequests - a.BatchedRequests)
		rejected += float64(b.Rejected - a.Rejected)
		submitted += float64(b.Submitted - a.Submitted)
		ckpts += float64(b.Checkpoints - a.Checkpoints)
		for s := range b.ShardBusyS {
			busyS += b.ShardBusyS[s] - a.ShardBusyS[s]
		}
		shards += b.Shards
		for name, rs := range r.nodeRt[i] {
			nodeReqs += float64(rs.n)
			nodeOut += float64(rs.bytesOut)
			nodeBusyNs += float64(rs.busyNs)
			switch name {
			case "submit":
				submitMs = append(submitMs, rs.ms...)
			case "replica_put":
				replicaIn += float64(rs.bytesIn)
			case "capture_put":
				captureIn += float64(rs.bytesIn)
			}
		}
	}
	m.put("fleet.http_submit_ms_p50", "ms", percentile(submitMs, 50))
	m.put("fleet.accept_ms_p50", "ms", percentile(accept, 50))
	m.put("fleet.queue_wait_ms_p50", "ms", percentile(wait, 50))
	m.put("fleet.queue_wait_ms_p90", "ms", percentile(wait, 90))
	m.put("fleet.run_ms_p50", "ms", percentile(run, 50))
	m.put("fleet.batch_size_mean", "count", ratio(batchSum, batches))
	m.put("fleet.batched_share", "share", ratio(batched, submitted))
	m.put("fleet.rejected_share", "share", ratio(rejected, submitted))
	m.put("fleet.shard_busy_pct", "%", ratio(100*busyS, r.wall.Seconds()*float64(shards)))
	m.put("fleet.checkpoints_per_op", "count", ratio(ckpts, done))
	if r.fedRt == nil {
		return
	}
	a, b := r.before.coord, r.after.coord
	replicated := float64(b.Replicated - a.Replicated)
	capPushes := float64(b.CaptureReplicated - a.CaptureReplicated)
	routed := float64(b.Routed-a.Routed) + float64(b.Spilled-a.Spilled)
	m.put("federation.submit_ms_p50", "ms", percentile(r.fedRt["submit"].ms, 50))
	m.put("federation.notify_lag_ms_p50", "ms", percentile(lag, 50))
	m.put("federation.node_requests_per_op", "count", ratio(nodeReqs, done))
	m.put("federation.node_bytes_out_per_op", "bytes", ratio(nodeOut, done))
	m.put("federation.replica_put_bytes_per_op", "bytes", ratio(replicaIn, done))
	m.put("federation.capture_put_bytes_per_op", "bytes", ratio(captureIn, done))
	m.put("federation.node_handler_ms_per_op", "ms", ratio(nodeBusyNs/1e6, done))
	m.put("federation.replicated_per_op", "count", ratio(replicated, done))
	m.put("federation.capture_full_sync_share", "share", ratio(float64(b.CaptureFullSyncs-a.CaptureFullSyncs), capPushes))
	m.put("federation.spilled_share", "share", ratio(float64(b.Spilled-a.Spilled), routed))
}

// foldServed folds the node-side trace of every completed op, once per
// batch (batch members share one trace), plus the coordinator's spans.
func foldServed(f *fold, ops []*op, fedRec *obs.Recorder) {
	seen := make(map[*obs.SpanRecord]bool)
	for _, o := range ops {
		if o.class != completed || o.res.node == nil {
			continue
		}
		spans, ok := o.res.node.sched.Trace(o.res.view.ID)
		if !ok || len(spans) == 0 || seen[&spans[0]] {
			continue
		}
		seen[&spans[0]] = true
		f.add(spans)
	}
	if fedRec != nil {
		f.add(fedRec.Snapshot())
	}
}

// fix is one mission's localization against its tag's true position.
type fix struct {
	ok   bool
	errM float64
}

func fixOf(tag fleet.TagInput, ok bool, x, y float64) fix {
	return fix{ok: ok, errM: math.Hypot(x-tag.X, y-tag.Y)}
}

// servedFixes are the localizations of the completed ops.
func servedFixes(ops []*op) []fix {
	var out []fix
	for _, o := range ops {
		if o.class == completed && o.res.outcome != nil {
			out = append(out, fixOf(o.req.Tags[0], o.res.outcome.LocOK, o.res.outcome.LocX, o.res.outcome.LocY))
		}
	}
	return out
}

// putFixes adds the share of missions localized and the median distance
// of their fixes from the tags' true positions.
func putFixes(m *metricSet, fixes []fix) {
	var errM []float64
	for _, f := range fixes {
		if f.ok {
			errM = append(errM, f.errM)
		}
	}
	m.put("loc.ok_share", "share", ratio(float64(len(errM)), float64(len(fixes))))
	m.put("loc.err_p50_m", "m", percentile(errM, 50))
}

func count(ops []*op, c class) int {
	n := 0
	for _, o := range ops {
		if o.class == c {
			n++
		}
	}
	return n
}

func mean(xs []float64) stat {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	st := ratio(s, float64(len(xs)))
	st.N = len(xs)
	return st
}

func msSince(t time.Time) float64 { return ms(time.Since(t).Nanoseconds()) }
