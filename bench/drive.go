package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	goruntime "runtime"
	"sync"
	"syscall"
	"time"

	"rfly/internal/fleet"
)

// class is how an op resolved.
type class int

const (
	pending   class = iota // never resolved: a bench bug or a lost mission
	completed              // terminal status done
	failed                 // transport error, 4xx/5xx, or a terminal status other than done
	refused                // 429 or 503 at submit; the open loop does not retry
)

// op is one request's life as the client sees it.
type op struct {
	req fleet.SubmitRequest
	// due is when the op was scheduled to start (open loop) or started
	// (closed loop); latency is timed from it.
	due time.Time
	// sent is when the generator dispatched the op; sent−due is its
	// lateness.
	sent   time.Time
	doneAt time.Time
	id     string
	class  class
	why    string // failure detail
	res    result
}

func (o *op) latency() time.Duration { return o.doneAt.Sub(o.due) }

func (o *op) fail(c class, format string, args ...any) {
	o.class = c
	o.why = fmt.Sprintf(format, args...)
}

// loadgen sends requests to a stack through one HTTP client and reads
// completion from the stack's in-process Done channels.
type loadgen struct {
	st     *stack
	client *http.Client
}

func newLoadgen(st *stack) *loadgen {
	return &loadgen{st: st, client: &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
		},
		Timeout: 30 * time.Second,
	}}
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// submit POSTs the op's request; it reports whether the mission was
// accepted.
func (lg *loadgen) submit(o *op) bool {
	body, err := json.Marshal(o.req)
	if err != nil {
		o.fail(failed, "encode request: %v", err)
		return false
	}
	resp, err := lg.client.Post(lg.st.url()+"/v1/missions", "application/json", bytes.NewReader(body))
	if err != nil {
		o.fail(failed, "submit: %v", err)
		return false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var sr fleet.SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			o.fail(failed, "decode submit response: %v", err)
			return false
		}
		o.id = sr.ID
		return true
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		o.fail(refused, "submit refused: %s", resp.Status)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		o.fail(failed, "submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return false
}

// await blocks until the accepted op's mission resolves or ctx ends.
func (lg *loadgen) await(ctx context.Context, o *op) {
	select {
	case <-lg.st.done(o.id):
		o.doneAt = time.Now()
	case <-ctx.Done():
		o.fail(failed, "mission %s unresolved when the drain deadline passed", o.id)
		return
	}
	o.res = lg.st.result(o.id)
	if o.res.status != fleet.StatusDone {
		msg := ""
		if o.res.node != nil {
			msg = o.res.view.Err
		}
		o.fail(failed, "mission %s ended %s %s", o.id, o.res.status, msg)
		return
	}
	o.class = completed
}

// drainFor bounds how long accepted missions may take to resolve after
// their phase's last send.
const drainFor = 60 * time.Second

// openLoop dispatches the schedule from one generator goroutine, each
// request at its due time whether or not earlier ones have finished,
// and waits for every mission to resolve. The generator never blocks on
// the server: each request is sent and awaited by its own goroutine, and
// the client's connection limit queues sends the server is slow to take,
// which the latency (timed from the due time) includes.
func (lg *loadgen) openLoop(sched []arrival) []*op {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ops := make([]*op, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		o := &op{req: a.req, due: start.Add(a.at)}
		ops[i] = o
		time.Sleep(time.Until(o.due))
		o.sent = time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if lg.submit(o) {
				lg.await(ctx, o)
			}
		}()
	}
	waitOrCancel(&wg, cancel, drainFor)
	return ops
}

// closedOp submits one request and waits for it to resolve.
func (lg *loadgen) closedOp(req fleet.SubmitRequest) *op {
	o := &op{req: req, due: time.Now()}
	o.sent = o.due
	if lg.submit(o) {
		ctx, cancel := context.WithTimeout(context.Background(), drainFor)
		defer cancel()
		lg.await(ctx, o)
	}
	return o
}

// closedLoop runs clients loops that each start their next op as soon
// as the previous one resolves, until dur has passed. It returns the ops
// and the median completion rate over the phase's windows.
func closedLoop(clients int, dur time.Duration, run func() *op) ([]*op, stat) {
	var (
		mu  sync.Mutex
		ops []*op
		wg  sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(dur)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				o := run()
				mu.Lock()
				ops = append(ops, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ops, windowRate(ops, start, dur)
}

// rateWindow is the length of the windows a closed-loop phase's
// completion rate is taken over.
const rateWindow = 500 * time.Millisecond

// windowRate is the median, over the rateWindow windows of [start,
// start+dur), of the ops completed per second in a window. A median of
// windows, unlike ops over the whole phase, is not moved by a stall of
// the shared host that covers less than half the phase. A completed op
// counts spread evenly over its life from due to done, so a window's
// rate is not rounded to whole ops.
func windowRate(ops []*op, start time.Time, dur time.Duration) stat {
	n := int(dur / rateWindow)
	if n == 0 {
		return stat{Null: "phase shorter than one rate window"}
	}
	done := make([]float64, n)
	for _, o := range ops {
		life := o.latency()
		if o.class != completed || life <= 0 {
			continue
		}
		from, to := o.due.Sub(start), o.doneAt.Sub(start)
		for i := max(0, int(from/rateWindow)); i < n && time.Duration(i)*rateWindow < to; i++ {
			lo, hi := max(from, time.Duration(i)*rateWindow), min(to, time.Duration(i+1)*rateWindow)
			done[i] += float64(hi-lo) / float64(life)
		}
	}
	rates := make([]float64, n)
	for i, d := range done {
		rates[i] = d / rateWindow.Seconds()
	}
	return median(rates)
}

// waitOrCancel waits for wg, calling cancel once limit has passed so the
// waiters give up.
func waitOrCancel(wg *sync.WaitGroup, cancel context.CancelFunc, limit time.Duration) {
	t := time.AfterFunc(limit, cancel)
	wg.Wait()
	t.Stop()
}

// usage is what a phase cost the whole process.
type usage struct {
	wall    time.Duration
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64 // allocated, not retained
}

type meter struct {
	t   time.Time
	cpu time.Duration
	ms  goruntime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	goruntime.ReadMemStats(&m.ms)
	m.cpu = cpuTime()
	m.t = time.Now()
	return m
}

func (m *meter) stop() usage {
	u := usage{wall: time.Since(m.t), cpu: cpuTime() - m.cpu}
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	u.mallocs = ms.Mallocs - m.ms.Mallocs
	u.bytes = ms.TotalAlloc - m.ms.TotalAlloc
	return u
}

// cpuTime is the process's user plus system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapWatch samples HeapInuse at 10 Hz and keeps the largest sample of
// each second.
type heapWatch struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // MB
}

// heapSamples is how many 10 Hz samples make one second's peak.
const heapSamples = 10

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Second / heapSamples)
		defer t.Stop()
		for i := 0; ; i++ {
			var ms goruntime.MemStats
			goruntime.ReadMemStats(&ms)
			mb := float64(ms.HeapInuse) / 1e6
			if i%heapSamples == 0 {
				h.peaks = append(h.peaks, mb)
			}
			h.peaks[len(h.peaks)-1] = max(h.peaks[len(h.peaks)-1], mb)
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops sampling and returns the median of the per-second peaks. The
// heap saws up to each collection and down after it, so the largest
// single sample rests on a few overshoots and which of them a sample
// happened to catch; the median second's peak does not.
func (h *heapWatch) end() stat {
	close(h.stop)
	<-h.done
	return median(h.peaks)
}
