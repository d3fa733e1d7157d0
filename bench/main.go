// Command bench is the repository's mission benchmark. It drives the
// serving stack in one process, from POST /v1/missions to a localized
// tag: fleet.NewHandler and federation.NewHandler on loopback, and the
// runtime, capture and loc packages called directly. It times every
// layer from outside, by timing calls into that layer's public
// functions and reading the spans and counters the program already
// keeps.
//
// Usage:
//
//	go run . [-workload locate|inventory|federate|resume|all] [-seed N]
//	         [-seconds S] [-trace 0|1] [-short]
//
// Every metric is printed by name with its unit. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics: with -trace 0 the metrics are the end-to-end set,
// with -trace 1 the per-layer set. The exit status is 0 only when every
// correctness gate passes and every reported metric could be measured.
// README.md defines the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rfly/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	short    bool
}

// plan is how long each phase of a run lasts and how much it samples.
type plan struct {
	warmup time.Duration
	// open and closed are the two measured phases.
	open, closed time.Duration
	setups       int // set-ups timed; setup_s is their median
	// setupFor is how long set-ups repeat beyond setups, so a stack that
	// is quick to set up gives its median more samples.
	setupFor     time.Duration
	corpusBuilds int // set-ups of the resume workload, each flying the corpus
	corpus       int // resume workload missions
	twins        int // missions re-flown in process for the bit-identity gate
	probes       int // missions flown piecewise for the runtime, loc and capture layers
}

func newPlan(o options, w *workload) plan {
	if o.short {
		return plan{warmup: 200 * time.Millisecond, open: time.Second, closed: time.Second,
			setups: 1, corpusBuilds: 1, corpus: 4, twins: 4, probes: 5}
	}
	s := time.Duration(o.seconds) * time.Second
	closed := time.Duration(float64(s) * w.closedShare)
	return plan{warmup: 2 * time.Second, open: s - closed, closed: closed,
		setups: 9, setupFor: 2 * time.Second, corpusBuilds: 3, corpus: 32, twins: 16, probes: 24}
}

// nproc is the CPU count the stack runs on, whatever the host has: run
// sets GOMAXPROCS to it, and it is the bench's own worker count and its
// connection limit. Sized from the host instead, the loc worker pools,
// the closed loop and the heap all scaled with the host's CPUs, so what
// a run measured depended on the host it ran on.
const nproc = 2

// clients is the closed-loop client count. One client per CPU saturates
// the host, and a saturated closed loop's rate swings with the
// hypervisor's steal: on a 2-vCPU VM its spread over 3 s phases was 0.18
// with two clients and 0.10 with one. On inventory's one shard, two
// clients' rate ranged over 111–178/s in twenty such phases, one
// client's over 73–91/s.
const clients = 1

// metricDef is one metric of the benchmark's contract.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_mb_per_op", "MB"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by traced runs.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"fleet.http_submit_ms_p50", "ms"},
		{"fleet.accept_ms_p50", "ms"},
		{"fleet.queue_wait_ms_p50", "ms"},
		{"fleet.queue_wait_ms_p90", "ms"},
		{"fleet.run_ms_p50", "ms"},
		{"fleet.batch_size_mean", "count"},
		{"fleet.batched_share", "share"},
		{"fleet.rejected_share", "share"},
		{"fleet.shard_busy_pct", "%"},
		{"fleet.checkpoints_per_op", "count"},
		{"runtime.sortie_ms_p50", "ms"},
		{"runtime.checkpoint_encode_ms_p50", "ms"},
		{"runtime.checkpoint_bytes", "bytes"},
		{"runtime.restore_ms_p50", "ms"},
		{"runtime.result_ms_p50", "ms"},
		{"runtime.live_estimate_ms_p50", "ms"},
		{"loc.stream_add_us_per_capture", "us"},
		{"loc.snapshot_ms_p50", "ms"},
		{"loc.ok_share", "share"},
		{"loc.err_p50_m", "m"},
		{"capture.append_us_per_record", "us"},
		{"capture.log_bytes", "bytes"},
		{"capture.replay_ms_p50", "ms"},
		{"federation.submit_ms_p50", "ms"},
		{"federation.notify_lag_ms_p50", "ms"},
		{"federation.node_requests_per_op", "count"},
		{"federation.node_bytes_out_per_op", "bytes"},
		{"federation.replica_put_bytes_per_op", "bytes"},
		{"federation.capture_put_bytes_per_op", "bytes"},
		{"federation.node_handler_ms_per_op", "ms"},
		{"federation.replicated_per_op", "count"},
		{"federation.capture_full_sync_share", "share"},
		{"federation.spilled_share", "share"},
	}
	for _, s := range spanNames {
		defs = append(defs, metricDef{s + ".self_ms_per_op", "ms"}, metricDef{s + ".count_per_op", "count"})
	}
	return append(defs,
		metricDef{"bench.ops", "count"},
		metricDef{"bench.generator_late_p90_ms", "ms"},
		metricDef{"bench.error_rate", "share"},
		metricDef{"bench.slo_miss_share", "share"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
}()

// report is one workload run's outcome.
type report struct {
	name string
	// maxLateMs is the median generator lateness above which the run is
	// invalid: most sends went out so late that the offered load was not
	// the stated one. The tail is not held to it, because the generator
	// shares the process's CPUs with the sorties it drives, and a late
	// send's latency counts from its due time anyway.
	maxLateMs float64
	metrics   metricSet
	attempted int
	failed    int // failed or refused
	gates     []string
	notes     []string
}

func (r *report) gate(format string, args ...any) {
	r.gates = append(r.gates, fmt.Sprintf(format, args...))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "all", "workload to run: locate, inventory, federate, resume, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same requests")
	fs.IntVar(&o.seconds, "seconds", 25, "measured seconds per workload")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&o.short, "short", false, "every phase at most 1 s (for tests; tails are null)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds < 1 {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload name] [-seed N] [-seconds S>=1] [-trace 0|1] [-short]")
		return 2
	}
	o.trace = trace == 1
	goruntime.GOMAXPROCS(nproc)
	var ws []*workload
	if o.workload == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else if w, ok := workloadByName(o.workload); ok {
		ws = append(ws, w)
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}

	fmt.Fprintf(stdout, "# rfly mission benchmark: GOMAXPROCS=%d NumCPU=%d %s seed=%d seconds=%d trace=%v short=%v\n",
		goruntime.GOMAXPROCS(0), goruntime.NumCPU(), goruntime.Version(), o.seed, o.seconds, o.trace, o.short)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	ok := true
	total := summary{Metrics: map[string]value{}}
	var last summary
	for _, w := range ws {
		rep, err := runWorkload(o, w)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		last = rep.print(stdout, defs, o)
		if !last.Correct || !rep.valid(stderr, defs, o) {
			ok = false
		}
		total.Attempted += last.Attempted
		total.Failed += last.Failed
		for name, v := range last.Metrics {
			total.Metrics[w.name+"."+name] = v
		}
	}
	total.Correct = ok
	if len(ws) == 1 {
		total = last
		total.Correct = ok
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "bench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !ok {
		return 1
	}
	return 0
}

// summary is the JSON line a run ends with.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value *float64 `json:"value"` // null when the metric could not be measured
	Unit  string   `json:"unit"`
}

// lookup returns the reported value of def. A per-layer metric the run
// did not produce is 0: that layer did no work on this workload's path.
func (r *report) lookup(def metricDef) (metric, bool) {
	if m, ok := r.metrics.get(def.name); ok {
		return m, true
	}
	return metric{Name: def.name, Unit: def.unit}, false
}

// print writes the human-readable table of every metric the run
// produced, and returns the workload's summary.
func (r *report) print(w io.Writer, defs []metricDef, o options) summary {
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s)\n", r.name, mode)
	reported := make(map[string]bool)
	for _, d := range defs {
		reported[d.name] = true
	}
	for _, m := range r.metrics.list {
		printMetric(w, m, reported[m.Name], "")
	}
	for _, d := range defs {
		if m, ok := r.lookup(d); !ok {
			printMetric(w, m, true, "not on this workload's path")
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if len(r.gates) == 0 {
		fmt.Fprintln(w, "  gates: all passed")
	}
	for _, g := range r.gates {
		fmt.Fprintf(w, "  GATE FAILED: %s\n", g)
	}
	res := summary{Correct: len(r.gates) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		m, _ := r.lookup(d)
		v := value{Unit: d.unit}
		if !m.null() {
			x := m.Value
			v.Value = &x
		}
		res.Metrics[d.name] = v
	}
	return res
}

func printMetric(w io.Writer, m metric, reported bool, why string) {
	mark := " "
	if reported {
		mark = "*"
	}
	val := fmt.Sprintf("%.6g", m.Value)
	switch {
	case m.null():
		val, why = "null", m.Null
	case m.N > 0 && why == "":
		why = fmt.Sprintf("n=%d", m.N)
	}
	fmt.Fprintf(w, " %s %-40s %14s %-6s %s\n", mark, m.Name, val, m.Unit, why)
}

// valid reports whether every reported metric was measured and the
// generator kept to its schedule; -short runs are exempt, because their
// phases are too short for tails.
func (r *report) valid(stderr io.Writer, defs []metricDef, o options) bool {
	if o.short {
		return true
	}
	ok := true
	for _, d := range defs {
		if m, _ := r.lookup(d); m.null() {
			fmt.Fprintf(stderr, "bench: %s: invalid run: %s is null (%s)\n", r.name, d.name, m.Null)
			ok = false
		}
	}
	if m, found := r.metrics.get("bench.generator_late_p50_ms"); found && !m.null() && m.Value > r.maxLateMs {
		fmt.Fprintf(stderr, "bench: %s: invalid run: generator median lateness %.2f ms > %.1f ms\n", r.name, m.Value, r.maxLateMs)
		ok = false
	}
	return ok
}

func runWorkload(o options, w *workload) (*report, error) {
	p := newPlan(o, w)
	if w.nodes == 0 {
		return runResume(o, p, w)
	}
	return runServed(o, p, w)
}

// runServed measures a workload served over HTTP: set-up, warm-up, an
// open-loop phase, then a closed-loop phase.
func runServed(o options, p plan, w *workload) (*report, error) {
	// A quarter of the mean gap between bursts.
	rep := &report{name: w.name, maxLateMs: 250 * float64(w.burst+1) / 2 / w.rate}

	// Set-up: spawn the stack and fly one mission per region through it,
	// one after another; repeated so setup_s is a median. The readiness
	// missions are the same in every set-up of every run, because set-up
	// time is a property of the system, not of the seed. The last stack
	// serves the run.
	var st *stack
	var setupS []float64
	for begin := time.Now(); len(setupS) < p.setups || time.Since(begin) < p.setupFor; {
		if st != nil {
			st.close()
		}
		sg := newGen(w, 0, "setup")
		t := time.Now()
		var err error
		if st, err = startStack(w, o.seed); err != nil {
			return nil, err
		}
		lg := newLoadgen(st)
		for range regionNames {
			if ready := lg.closedOp(sg.next()); ready.class != completed {
				lg.close()
				st.close()
				return nil, fmt.Errorf("set-up mission: %s", ready.why)
			}
		}
		lg.close()
		setupS = append(setupS, time.Since(t).Seconds())
	}
	defer st.close()
	lg := newLoadgen(st)
	defer lg.close()

	lg.openLoop(newGen(w, o.seed, "warmup").arrivals(p.warmup))

	heap := watchHeap()
	var fedRec *obs.Recorder
	if o.trace {
		fedRec = st.recordFront(obs.NewRecorder(frontSpans))
	}
	st.takeRoutes()
	before := st.counters()
	mt := startMeter()
	open := lg.openLoop(newGen(w, o.seed, "open").arrivals(p.open))
	openUse := mt.stop()
	// The peak is taken over the open phase only: the node keeps every
	// mission's record, so over the closed loop the heap would grow with
	// however many ops the host's speed let through.
	peak := heap.end()
	rd := phaseReadings{wall: openUse.wall, before: before, after: st.counters()}
	rd.nodeRt, rd.fedRt = st.takeRoutes()
	st.recordFront(nil)

	cg := newGen(w, o.seed, "closed")
	var mu sync.Mutex
	next := func() *op {
		mu.Lock()
		req := cg.next()
		mu.Unlock()
		return lg.closedOp(req)
	}
	var closed []*op
	var rate stat
	if o.trace {
		// Tracing overhead: the same closed loop, untraced then traced.
		a, ua := measureClosed(p.closed/2, next)
		st.recordFront(obs.NewRecorder(frontSpans))
		b, ub := measureClosed(p.closed/2, next)
		st.recordFront(nil)
		closed = append(a, b...)
		putOverhead(&rep.metrics, a, ua, b, ub)
		rep.notes = append(rep.notes, "fleet records a per-batch trace even when untraced, so its spans cost the same in both halves")
	} else {
		closed, rate = closedLoop(clients, p.closed, next)
	}

	all := append(append([]*op(nil), open...), closed...)
	rep.account(all)
	done := float64(count(open, completed))
	m := &rep.metrics
	m.put("setup_s", "s", median(setupS))
	if !o.trace {
		m.put("throughput_per_s", "1/s", rate)
	}
	putLatency(m, open)
	putUsage(m, openUse, done)
	m.put("heap_peak_mb", "MB", peak)
	putServing(m, open, &rd)
	putBench(m, w, open, true)
	if w.sar {
		putFixes(m, servedFixes(open))
		rep.checkTwins(w, open, o.seed, p.twins)
	} else {
		rep.checkInventory(all)
	}
	if o.trace {
		f := newFold()
		foldServed(f, open, fedRec)
		f.put(m, int(done))
		if err := putProbes(m, w, o.seed, p.probes); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// measureClosed runs one closed-loop phase under a meter.
func measureClosed(dur time.Duration, next func() *op) ([]*op, usage) {
	mt := startMeter()
	ops, _ := closedLoop(clients, dur, next)
	return ops, mt.stop()
}

// runResume measures the resume workload: set-up builds the corpus,
// then the closed-loop clients each restore a checkpoint, fly the rest of the
// mission and check it against the uninterrupted run.
func runResume(o options, p plan, w *workload) (*report, error) {
	rep := &report{name: w.name}
	var corpus []kept
	var setupS []float64
	for range p.corpusBuilds {
		t := time.Now()
		c, err := buildCorpus(w, newGen(w, o.seed, "corpus"), p.corpus, nproc)
		if err != nil {
			return nil, err
		}
		corpus = c
		setupS = append(setupS, time.Since(t).Seconds())
	}
	var n atomic.Int64
	next := func(rec *obs.Recorder) *op {
		return resumeOp(&corpus[int(n.Add(1)-1)%len(corpus)], rec)
	}
	closedLoop(clients, p.warmup, func() *op { return next(nil) })

	m := &rep.metrics
	heap := watchHeap()
	var all, ops []*op
	var use usage
	var rate stat
	if o.trace {
		// Tracing overhead: the same closed loop, untraced then traced.
		a, ua := measureClosed(p.closed/2, func() *op { return next(nil) })
		f := newFold()
		var mu sync.Mutex
		var dropped int64
		b, ub := measureClosed(p.closed/2, func() *op {
			rec := obs.NewRecorder(resumeSpans)
			done := next(rec)
			mu.Lock()
			f.add(rec.Snapshot())
			dropped += rec.Dropped()
			mu.Unlock()
			return done
		})
		f.put(m, count(b, completed))
		putOverhead(m, a, ua, b, ub)
		if dropped > 0 {
			rep.notes = append(rep.notes, fmt.Sprintf("%d spans fell out of the per-op flight recorder", dropped))
		}
		all, ops, use = append(a, b...), b, ub
	} else {
		mt := startMeter()
		ops, rate = closedLoop(clients, p.closed, func() *op { return next(nil) })
		all, use = ops, mt.stop()
	}
	peak := heap.end()
	rep.account(all)
	done := float64(count(ops, completed))
	m.put("setup_s", "s", median(setupS))
	if !o.trace {
		m.put("throughput_per_s", "1/s", rate)
	}
	putLatency(m, ops)
	putUsage(m, use, done)
	m.put("heap_peak_mb", "MB", peak)
	putBench(m, w, ops, false)
	putFixes(m, corpusFixes(corpus))
	for _, op := range all {
		if op.class != completed {
			rep.gate("resume op: %s", op.why)
			break
		}
	}
	if o.trace {
		if err := putProbes(m, w, o.seed, p.probes); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// resumeSpans is the flight-recorder ring size for one traced resume op,
// well above the spans two sorties emit.
const resumeSpans = 4096

// account tallies ops and checks none was lost: attempted must equal
// completed + failed + refused.
func (r *report) account(ops []*op) {
	r.attempted += len(ops)
	done, fail, ref := count(ops, completed), count(ops, failed), count(ops, refused)
	r.failed += fail + ref
	if done+fail+ref != len(ops) {
		r.gate("attempted %d != completed %d + failed %d + refused %d", len(ops), done, fail, ref)
	}
}

// checkTwins re-flies a seeded sample of completed SAR missions in
// process, through runtime.New(fleet.MissionConfig(...)).Run, and
// requires the served localization to be bit-identical.
func (r *report) checkTwins(w *workload, ops []*op, seed uint64, n int) {
	var served []*op
	for _, o := range ops {
		if o.class == completed {
			served = append(served, o)
		}
	}
	g := newGen(w, seed, "twins")
	g.r.Shuffle(len(served), func(i, j int) { served[i], served[j] = served[j], served[i] })
	served = served[:min(n, len(served))]
	if len(served) < n {
		r.gate("twin sample: only %d completed missions, want %d", len(served), n)
	}
	var mu sync.Mutex
	err := parallel(len(served), nproc, func(i int) error {
		o := served[i]
		e, err := twin(w, o.req)
		if err != nil {
			return err
		}
		got := o.res.outcome
		mu.Lock()
		defer mu.Unlock()
		if got == nil || e.LocOK != got.LocOK ||
			math.Float64bits(e.LocX) != math.Float64bits(got.LocX) ||
			math.Float64bits(e.LocY) != math.Float64bits(got.LocY) {
			r.gate("mission %s (seed %d): served localization differs from its in-process twin", o.id, o.req.Seed)
		}
		return nil
	})
	if err != nil {
		r.gate("twin flight: %v", err)
	}
}

// checkInventory requires every inventory outcome to account for each
// requested tag.
func (r *report) checkInventory(ops []*op) {
	for _, o := range ops {
		if o.class != completed {
			continue
		}
		out := o.res.outcome
		if out == nil || len(out.TagReads) != len(o.req.Tags) {
			r.gate("mission %s: outcome does not carry one read count per tag", o.id)
			return
		}
		sum := 0
		for _, n := range out.TagReads {
			sum += int(n)
		}
		if sum != out.Reads {
			r.gate("mission %s: Reads %d != sum of TagReads %d", o.id, out.Reads, sum)
			return
		}
	}
}

func putLatency(m *metricSet, ops []*op) {
	var lat []float64
	for _, o := range ops {
		if o.class == completed {
			lat = append(lat, ms(o.latency().Nanoseconds()))
		}
	}
	m.put("latency_p50_ms", "ms", percentile(lat, 50))
	m.put("latency_p90_ms", "ms", percentile(lat, 90))
}

func putUsage(m *metricSet, u usage, done float64) {
	m.put("cpu_ms_per_op", "ms", ratio(ms(u.cpu.Nanoseconds()), done))
	m.put("allocs_per_op", "count", ratio(float64(u.mallocs), done))
	m.put("alloc_mb_per_op", "MB", ratio(float64(u.bytes)/1e6, done))
}

// putBench adds the generator's own readings and the failure shares.
// A failed or refused op counts as missing the latency limit.
func putBench(m *metricSet, w *workload, ops []*op, openLoop bool) {
	var late []float64
	miss := 0
	for _, o := range ops {
		if openLoop && !o.sent.IsZero() {
			late = append(late, ms(o.sent.Sub(o.due).Nanoseconds()))
		}
		if o.class != completed || o.latency() > w.slo {
			miss++
		}
	}
	m.put("bench.ops", "count", stat{Value: float64(count(ops, completed))})
	if openLoop {
		m.put("bench.generator_late_p50_ms", "ms", percentile(late, 50))
		m.put("bench.generator_late_p90_ms", "ms", percentile(late, 90))
	}
	bad := len(ops) - count(ops, completed)
	m.put("bench.error_rate", "share", ratio(float64(bad), float64(len(ops))))
	m.put("bench.slo_miss_share", "share", ratio(float64(miss), float64(len(ops))))
}

// putOverhead compares CPU per op of an untraced and a traced half.
func putOverhead(m *metricSet, a []*op, ua usage, b []*op, ub usage) {
	pa := ratio(float64(ua.cpu), float64(count(a, completed)))
	pb := ratio(float64(ub.cpu), float64(count(b, completed)))
	if pa.null() || pb.null() {
		m.put("bench.trace_overhead_pct", "%", stat{Null: "no operations in a half"})
		return
	}
	m.put("bench.trace_overhead_pct", "%", ratio(100*(pb.Value-pa.Value), pa.Value))
}

// putProbes flies the workload's mission shape piecewise and reports the
// runtime, loc and capture layers.
func putProbes(m *metricSet, w *workload, seed uint64, n int) error {
	var p probes
	g := newGen(w, seed, "probe")
	for range n {
		if err := p.fly(context.Background(), missionConfig(w.node, g.next())); err != nil {
			return fmt.Errorf("probe mission: %w", err)
		}
	}
	p.put(m)
	return nil
}

func median(xs []float64) stat {
	if len(xs) == 0 {
		return stat{Null: "no samples"}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	v := s[mid]
	if len(s)%2 == 0 {
		v = (s[mid-1] + s[mid]) / 2
	}
	return stat{Value: v, N: len(s)}
}
