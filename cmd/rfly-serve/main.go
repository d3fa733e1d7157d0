// rfly-serve is the RFly mission service daemon: it fronts the
// internal/fleet sharded scheduler with an HTTP/JSON API.
//
//	POST   /v1/missions            submit an inventory mission (202; 429 +
//	                               Retry-After under backpressure)
//	GET    /v1/missions/{id}       poll a mission (?after=N long-polls
//	                               until sortie N+1 commits)
//	GET    /v1/missions/{id}/trace flight-recorder span dump for the sortie
//	                               that served the mission
//	DELETE /v1/missions/{id}       cancel a mission
//	GET    /healthz                liveness (503 while draining)
//	GET    /metrics                queue depth, shard utilization, batch and
//	                               latency histograms, obs counter registry
//
// internal/fleet/http.go lists the full route table, including the
// raw-byte checkpoint, capture and replica routes. The replica store
// holds checkpoints only; each embeds the mission's capture log.
//
// SIGINT/SIGTERM triggers a graceful drain: admission stops, in-flight
// sorties finish, every shard's final engine checkpoint is written to
// -ckpt-dir, and the process exits 0.
//
// Usage:
//
//	rfly-serve [-addr :8080] [-shards 4] [-queue 64] [-batch 8]
//	           [-sorties 1] [-ticks 12] [-ckpt-dir DIR] [-pprof ADDR]
//	           [-req-timeout 10s]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"rfly/internal/fleet"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	shards := flag.Int("shards", 4, "shard worker pool size (concurrent sorties)")
	queueCap := flag.Int("queue", 0, "admission queue capacity (0 = 16×shards)")
	maxBatch := flag.Int("batch", 8, "max compatible requests coalesced into one sortie")
	sorties := flag.Int("sorties", 1, "sorties per service mission")
	ticks := flag.Int("ticks", 12, "ticks per sortie")
	ckptDir := flag.String("ckpt-dir", "", "directory for drain-time shard checkpoints (empty = skip)")
	pprofAddr := flag.String("pprof", "", "pprof listen address (e.g. localhost:6060; empty = disabled)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "graceful drain bound")
	reqTimeout := flag.Duration("req-timeout", 10*time.Second, "per-request handler timeout (0 = unbounded)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			// net/http/pprof registers on DefaultServeMux; serve it on
			// its own listener so profiling never shares the API port.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "rfly-serve: pprof listener: %v\n", err)
			}
		}()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	sched, err := fleet.New(fleet.Config{
		Shards:         *shards,
		QueueCap:       *queueCap,
		MaxBatch:       *maxBatch,
		Sorties:        *sorties,
		TicksPerSortie: *ticks,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfly-serve:", err)
		os.Exit(1)
	}
	sched.Start()

	// A stalled or hostile client must not pin a connection forever:
	// ReadHeaderTimeout bounds the slow-loris window, IdleTimeout reaps
	// parked keep-alives, and the per-request context timeout cuts off
	// any handler a dead client would otherwise hold open. Shard workers
	// never block on a request context, so a timed-out request costs
	// only its own goroutine.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           fleet.WithRequestTimeout(fleet.NewHandler(sched), *reqTimeout),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	cfg := sched.Config()
	fmt.Printf("rfly-serve on %s: %d shards, queue %d, batch %d, %d×%d-tick missions\n",
		*addr, cfg.Shards, cfg.QueueCap, cfg.MaxBatch, cfg.Sorties, cfg.TicksPerSortie)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "rfly-serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop the listener (pending responses finish),
	// refuse new work, let in-flight sorties land and checkpoint.
	fmt.Println("rfly-serve: draining (finishing in-flight sorties)")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "rfly-serve: http shutdown:", err)
	}
	if err := sched.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "rfly-serve:", err)
		os.Exit(1)
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "rfly-serve:", err)
			os.Exit(1)
		}
		for i := 0; i < cfg.Shards; i++ {
			ckpt := sched.ShardCheckpoint(i)
			if ckpt == nil {
				continue // shard never flew a mission
			}
			path := filepath.Join(*ckptDir, fmt.Sprintf("shard-%d.ckpt", i))
			if err := os.WriteFile(path, ckpt, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "rfly-serve:", err)
				os.Exit(1)
			}
			fmt.Printf("checkpointed shard %d -> %s (%d bytes)\n", i, path, len(ckpt))
		}
	}
	snap := sched.Metrics().Snapshot()
	fmt.Printf("drained: %d completed, %d rejected, %d batches (mean size %.2f)\n",
		snap.Completed, snap.Rejected, snap.Batches, snap.MeanBatchSize)
}
