package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rfly/internal/federation"
	"rfly/internal/fleet"
	"rfly/internal/obs"
)

// server is one handler served on a loopback port.
type server struct {
	srv    *http.Server
	url    string
	served chan struct{} // closed when Serve has returned
}

func serve(ln net.Listener, h http.Handler) *server {
	s := &server{
		srv:    &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:    urlOf(ln),
		served: make(chan struct{}),
	}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // always http.ErrServerClosed, from close
	}()
	return s
}

func listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	return ln, nil
}

func urlOf(ln net.Listener) string { return "http://" + ln.Addr().String() }

func (s *server) close() {
	_ = s.srv.Close() // closing the listener and connections cannot fail usefully
	<-s.served
}

// node is one fleet scheduler behind fleet.NewHandler, with the bench's
// route counter in front.
type node struct {
	sched  *fleet.Scheduler
	front  *server
	routes *routes
}

func startNode(cfg fleet.Config, ln net.Listener) (*node, error) {
	sched, err := fleet.New(cfg)
	if err != nil {
		_ = ln.Close() // nothing was served on it
		return nil, err
	}
	sched.Start()
	n := &node{sched: sched, routes: &routes{}}
	n.front = serve(ln, n.routes.wrap(fleet.NewHandler(sched)))
	return n, nil
}

func (n *node) stop() {
	if n.front != nil {
		n.front.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = n.sched.Stop(ctx) // in-flight sorties are canceled; a timeout leaves nothing to act on
}

// stack is the system under test: one fleet node, or several behind a
// federation coordinator that is served by federation.NewHandler.
type stack struct {
	nodes []*node
	coord *federation.Coordinator
	front *server
	// fed counts the coordinator's routes; nil without a coordinator.
	fed *routes
}

func startStack(w *workload, seed uint64) (*stack, error) {
	lns, err := placeNodes(w.nodes)
	if err != nil {
		return nil, err
	}
	st := &stack{}
	var urls []string
	for i, ln := range lns {
		n, err := startNode(w.node, ln)
		if err != nil {
			closeAll(lns[i+1:])
			st.close()
			return nil, err
		}
		st.nodes = append(st.nodes, n)
		urls = append(urls, n.front.url)
	}
	if w.nodes < 2 {
		return st, nil
	}
	coord, err := federation.New(federation.Config{
		Nodes:          urls,
		VNodes:         ringVNodes,
		Seed:           seed,
		Heartbeat:      250 * time.Millisecond,
		PollEvery:      10 * time.Millisecond,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	coord.Start()
	st.coord = coord
	st.fed = &routes{}
	ln, err := listen()
	if err != nil {
		st.close()
		return nil, err
	}
	st.front = serve(ln, st.fed.wrap(federation.NewHandler(coord)))
	return st, nil
}

// ringVNodes is the federation ring's virtual nodes per node.
const ringVNodes = 64

// placeNodes opens one loopback listener per node. The federation ring
// places regions by hashing node URLs, so with ports drawn at random
// the placement would change from run to run: sometimes one node owns
// every region and the other idles. For more than one node the ports
// are redrawn until the ring gives one node both corridors and another
// the dock, so every run serves the same deployment.
func placeNodes(n int) ([]net.Listener, error) {
	for range 256 {
		var lns []net.Listener
		ring := federation.NewRing(ringVNodes)
		for range n {
			ln, err := listen()
			if err != nil {
				closeAll(lns)
				return nil, err
			}
			lns = append(lns, ln)
			ring.Add(urlOf(ln))
		}
		east, _ := ring.Owner("corridor-east")
		west, _ := ring.Owner("corridor-west")
		dock, _ := ring.Owner("dock")
		if n < 2 || (east == west && west != dock) {
			return lns, nil
		}
		closeAll(lns)
	}
	return nil, fmt.Errorf("no loopback ports gave the %d-node ring its fixed region placement", n)
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		_ = ln.Close() // never served
	}
}

func (st *stack) close() {
	if st.front != nil {
		st.front.close()
	}
	if st.coord != nil {
		st.coord.Stop()
	}
	for _, n := range st.nodes {
		n.stop()
	}
}

// frontSpans is the coordinator recorder's ring size: one fed.route
// span per submit, far more than a phase sends.
const frontSpans = 1 << 16

// recordFront attaches rec (nil detaches) to every request the
// coordinator serves, so its fed.route spans land in rec. It returns
// rec, or nil when there is no coordinator.
func (st *stack) recordFront(rec *obs.Recorder) *obs.Recorder {
	if st.fed == nil {
		return nil
	}
	st.fed.rec.Store(rec)
	return rec
}

// url is where missions are submitted.
func (st *stack) url() string {
	if st.front != nil {
		return st.front.url
	}
	return st.nodes[0].front.url
}

// done is the mission's public completion channel.
func (st *stack) done(id string) <-chan struct{} {
	if st.coord != nil {
		return st.coord.Done(id)
	}
	return st.nodes[0].sched.Done(id)
}

// result is a resolved mission as the system reports it, plus the
// node-side record that served it.
type result struct {
	status  fleet.Status
	outcome *fleet.Outcome
	node    *node
	view    fleet.View // node-side record: queue and run timestamps
}

func (st *stack) result(id string) result {
	if st.coord == nil {
		v, _ := st.nodes[0].sched.Get(id)
		return result{status: v.Status, outcome: v.Outcome, node: st.nodes[0], view: v}
	}
	fv, _ := st.coord.Get(id)
	r := result{status: fv.Status, outcome: fv.Outcome}
	for _, n := range st.nodes {
		if n.front.url == fv.Node {
			r.node = n
			r.view, _ = n.sched.Get(fv.RemoteID)
		}
	}
	return r
}

// routes counts, sizes and times the requests a handler serves, by
// route: the bench's outside view of one layer's HTTP surface.
type routes struct {
	// rec, when set, rides every request's context, so spans the layer
	// opens under the request land in it.
	rec atomic.Pointer[obs.Recorder]

	mu sync.Mutex
	by map[string]*routeStat
}

type routeStat struct {
	n                 int
	bytesIn, bytesOut int64
	busyNs            int64
	ms                []float64 // per-request handler time
}

// routeOf names the routes the per-layer metrics read.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/missions":
		return "submit"
	case r.Method == http.MethodPut && strings.HasPrefix(p, "/v1/replicas/"):
		return "replica_put"
	case r.Method == http.MethodPut && strings.HasPrefix(p, "/v1/capture-replicas/"):
		return "capture_put"
	}
	return "other"
}

func (rt *routes) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rec := rt.rec.Load(); rec != nil {
			r = r.WithContext(obs.WithRecorder(r.Context(), rec))
		}
		body := &countReader{ReadCloser: r.Body}
		r.Body = body
		cw := &countWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		d := time.Since(start)

		rt.mu.Lock()
		defer rt.mu.Unlock()
		if rt.by == nil {
			rt.by = make(map[string]*routeStat)
		}
		name := routeOf(r)
		s := rt.by[name]
		if s == nil {
			s = &routeStat{}
			rt.by[name] = s
		}
		s.n++
		s.bytesIn += body.n
		s.bytesOut += cw.n
		s.busyNs += d.Nanoseconds()
		s.ms = append(s.ms, ms(d.Nanoseconds()))
	})
}

// take returns the counts since the last take and resets them.
func (rt *routes) take() map[string]routeStat {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]routeStat, len(rt.by))
	for name, s := range rt.by {
		out[name] = *s
	}
	rt.by = nil
	return out
}

type countReader struct {
	io.ReadCloser
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

type countWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}
