package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/sweep"
)

// Connection timeouts of the serve listener: a client has serveHeaderTimeout
// to send a request's headers, and a kept-alive connection with no request
// closes after serveIdleTimeout, so stalled or abandoned connections cannot
// pile up. There is deliberately no timeout on reading a whole request or
// writing a whole response: a results stream follows its job and stays open
// for as long as the job runs.
const (
	serveHeaderTimeout = 10 * time.Second
	serveIdleTimeout   = 2 * time.Minute
)

// newHTTPServer returns serve's HTTP server for h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: serveHeaderTimeout, IdleTimeout: serveIdleTimeout}
}

// cmdServe runs the long-lived job server: sweeps and machine runs submitted
// over HTTP execute on the shared engine and content-keyed cache, so the
// service and the one-shot CLI produce identical results from the same
// cache directory. It serves until SIGINT/SIGTERM, then shuts down
// gracefully: the listener stops, in-flight requests and running jobs get
// the -grace budget to finish.
//
// The server is also the sweep-fabric coordinator: `repro worker` processes
// register under /fabric/v1/ and submitted sweeps shard across them in
// leased batches, every accepted result merging into the server's cache so
// streamed JSONL stays byte-identical to the single-process path. With no
// workers registered sweeps run on the local engine exactly as before, so
// mounting the fabric costs nothing.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8321", "listen address")
	cacheDir := fs.String("cache", ".sweep-cache", "result cache directory shared with 'repro sweep' (empty disables caching)")
	workers := fs.Int("workers", 0, "measurement workers per job (0 = GOMAXPROCS)")
	jobs := fs.Int("jobs", 2, "jobs executing concurrently; further submissions queue")
	history := fs.Int("history", 256, "finished jobs kept before the oldest are evicted")
	grace := fs.Duration("grace", 10*time.Second, "graceful-shutdown budget for in-flight requests and jobs")
	dense := fs.Bool("dense", false, "use the reference dense scheduler instead of idle-skip")
	pool := fs.Bool("machine-pool", true, "reuse warmed machines across submissions that differ only in inputs")
	lease := fs.Duration("lease", 5*time.Second, "fabric lease TTL: a worker batch unreported past this re-queues")
	batch := fs.Int("batch", 8, "fabric points per worker lease")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *lease <= 0 {
		return usageErrf("bad -lease %v (want a positive duration)", *lease)
	}
	if *batch < 1 {
		return usageErrf("bad -batch %d (want at least 1)", *batch)
	}

	// The engine is the server's simulation configuration: every submitted
	// job measures through it, so the scheduler choice and the warm-machine
	// pool are service-wide settings.
	eng := &sweep.Engine{Workers: *workers, Dense: *dense}
	if *pool {
		eng.Pool = machine.NewPool()
	}
	if *cacheDir != "" {
		c, err := sweep.NewCache(*cacheDir)
		if err != nil {
			return err
		}
		eng.Cache = c
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	coord := &fabric.Coordinator{
		Eng: eng, Cache: eng.Cache, LeaseTTL: *lease, Batch: *batch, Log: log,
	}
	srv := server.New(server.Config{
		Engine: eng, Runner: coord, Log: log,
		MaxHistory: *history, MaxConcurrentJobs: *jobs,
	})
	// The fabric protocol mounts beside the API on the same listener; its
	// high-frequency worker polls skip the request-logging middleware.
	mux := http.NewServeMux()
	mux.Handle("/fabric/v1/", coord.Handler())
	mux.Handle("/", srv.Handler())
	hs := newHTTPServer(mux)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	log.Info("serving", "addr", ln.Addr().String(), "cache", *cacheDir, "jobs", *jobs, "history", *history, "machinePool", *pool, "lease", *lease, "batch", *batch)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	log.Info("shutting down", "grace", *grace)
	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	if err := srv.Drain(sctx); err != nil {
		return fmt.Errorf("serve: jobs still running after %s", *grace)
	}
	log.Info("stopped")
	return nil
}
