package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// serveCmd is the what-if query service: an HTTP/JSON API over the
// deterministic simulator answering "this workload, this machine, this
// backend → predicted time, critical path, comm matrix". Every answer is
// content-addressed by its spec hash (internal/spec) and cached
// (internal/cache), so repeated questions are O(1) and byte-identical;
// identical misses coalesce, and distinct ones simulate on their request
// goroutines, GOMAXPROCS at a time (internal/serve). The telemetry plane's
// endpoints (/metrics /healthz /debug/runs /debug/flight) are mounted
// alongside /query and /stats, with the service's serve.* and cache.*
// counters on /metrics.
//
// SIGINT/SIGTERM shut down gracefully: the listener stops, in-flight
// requests and the misses they wait on drain, then the subcommand returns.
//
// The service's wall-clock record is the benchmark's serve-warm and
// serve-churn workloads (benchmark/README.md).
//
// Usage:
//
//	uniconn serve -addr 127.0.0.1:8080
//	uniconn serve -addr :8080 -cache-dir /var/cache/uniconn
//	curl -s -X POST -d '{"workload":"allreduce","ranks":64,"bytes":1048576}' \
//	    http://127.0.0.1:8080/query
func serveCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("serve", stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port, :0 picks a port)")
	cacheDir := fs.String("cache-dir", "", "persist cached results to this directory (survives restarts)")
	cacheEntries := fs.Int("cache-entries", 0, "in-memory cache entry cap (0 = default)")
	cacheBytes := fs.Int64("cache-bytes", 0, "in-memory cache byte cap (0 = default)")
	queueCap := fs.Int("queue-cap", serve.DefaultQueueCap, "misses waiting while every slot is busy, before 503")
	if err := parse(fs, args); err != nil {
		return err
	}

	tracker := telemetry.NewTracker()
	tsrv := telemetry.NewServer(tracker)
	svc := serve.New(serve.Options{
		Cache: cache.New(cache.Options{
			MaxEntries: *cacheEntries, MaxBytes: *cacheBytes, Dir: *cacheDir,
		}),
		Registry: tracker.Registry(),
		QueueCap: *queueCap,
	})
	handler := serve.NewHandler(svc, tsrv.Handler())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: telemetry.ReadHeaderTimeout}
	fmt.Fprintf(stderr, "uniconn serve on http://%s  (/query /stats /metrics /healthz)\n", ln.Addr())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(stderr, "shutting down: draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(stderr, "shutdown: %v\n", err)
		}
		svc.Close()
		return nil
	case err := <-errCh:
		return err
	}
}
