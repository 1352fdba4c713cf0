// uniconn-serve is the what-if query service: an HTTP/JSON API over the
// deterministic simulator answering "this workload, this machine, this
// backend → predicted time, critical path, comm matrix". Every answer is
// content-addressed by its spec hash (internal/spec) and cached
// (internal/cache), so repeated questions are O(1) and byte-identical;
// concurrent misses coalesce and batch into deterministic sweep runs
// (internal/serve). The telemetry plane's endpoints (/metrics /healthz
// /debug/runs /debug/flight) are mounted alongside /query and /stats, with
// the service's serve.* and cache.* counters on /metrics.
//
// SIGINT/SIGTERM shut down gracefully: the listener stops, in-flight
// requests and queued batches drain, then the process exits.
//
// The service's wall-clock record is the benchmark's serve-warm and
// serve-churn workloads (benchmark/README.md).
//
// Usage:
//
//	uniconn-serve -addr 127.0.0.1:8080
//	uniconn-serve -addr :8080 -cache-dir /var/cache/uniconn
//	curl -s -X POST -d '{"workload":"allreduce","ranks":64,"bytes":1048576}' \
//	    http://127.0.0.1:8080/query
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port, :0 picks a port)")
	cacheDir := flag.String("cache-dir", "", "persist cached results to this directory (survives restarts)")
	cacheEntries := flag.Int("cache-entries", 0, "in-memory cache entry cap (0 = default)")
	cacheBytes := flag.Int64("cache-bytes", 0, "in-memory cache byte cap (0 = default)")
	batchWindow := flag.Duration("batch-window", serve.DefaultBatchWindow,
		"how long the first miss of a batch waits to coalesce company before simulating")
	maxBatch := flag.Int("max-batch", serve.DefaultMaxBatch, "max specs per batched sweep")
	inflight := flag.Int("inflight", serve.DefaultMaxInflight, "max concurrently executing batches")
	queueCap := flag.Int("queue-cap", serve.DefaultQueueCap, "queued-spec cap before load shedding (503)")
	workers := flag.Int("workers", 0,
		"sweep worker count per batch; 0 = UNICONN_WORKERS env or GOMAXPROCS")
	flag.Parse()

	spec.ApplyWorkersEnv(*workers)

	tracker := telemetry.NewTracker()
	tsrv := telemetry.NewServer(tracker)
	svc := serve.New(serve.Options{
		Cache: cache.New(cache.Options{
			MaxEntries: *cacheEntries, MaxBytes: *cacheBytes, Dir: *cacheDir,
		}),
		Registry:    tracker.Registry(),
		BatchWindow: *batchWindow,
		MaxBatch:    *maxBatch,
		MaxInflight: *inflight,
		QueueCap:    *queueCap,
	})
	handler := serve.NewHandler(svc, tsrv.Handler())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: telemetry.ReadHeaderTimeout}
	fmt.Fprintf(os.Stderr, "uniconn-serve on http://%s  (/query /stats /metrics /healthz)\n",
		ln.Addr())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "shutting down: draining in-flight requests and queued batches")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		svc.Close()
	case err := <-errCh:
		log.Fatal(err)
	}
}
