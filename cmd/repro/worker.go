package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/url"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/sweep"
)

// cmdWorker joins a sweep fabric: it registers with a coordinator (a
// `repro serve` process), leases batches of grid points, measures them on a
// local engine — with the same pool/singleflight/cache machinery as a local
// sweep — and reports the records back. It serves until SIGINT/SIGTERM.
// Point -cache at a store shared by the fleet to get fleet-wide
// at-most-once simulation; a private directory still dedupes this worker's
// own repeats.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	coord := fs.String("coordinator", "http://127.0.0.1:8321", "coordinator base URL (a running 'repro serve')")
	cacheDir := fs.String("cache", ".sweep-cache", "result cache directory (empty disables caching)")
	name := fs.String("name", "", "worker label in coordinator logs (default host:pid)")
	workers := fs.Int("workers", 0, "concurrent measurements per leased batch (0 = GOMAXPROCS)")
	dense := fs.Bool("dense", false, "use the reference dense scheduler instead of idle-skip")
	pool := fs.Bool("machine-pool", true, "reuse warmed machines across points that differ only in inputs")
	poll := fs.Duration("poll", 0, "idle poll interval (0 = coordinator-suggested)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	u, err := url.Parse(*coord)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return usageErrf("bad -coordinator URL %q (want scheme://host:port)", *coord)
	}

	eng := &sweep.Engine{Workers: *workers, Dense: *dense}
	if *pool {
		eng.Pool = machine.NewPool()
	}
	if *cacheDir != "" {
		if eng.Cache, err = sweep.NewCache(*cacheDir); err != nil {
			return err
		}
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	w := &fabric.Worker{
		Coordinator: u.String(), Eng: eng, Name: *name, Log: log, Poll: *poll,
	}
	log.Info("worker starting", "coordinator", w.Coordinator, "name", *name,
		"cache", *cacheDir, "machinePool", *pool)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		return fmt.Errorf("worker: %w", err)
	}
	st := eng.Stats()
	log.Info("worker stopped", "measured", st.Points, "simulated", st.Simulated,
		"cached", st.Hits, "coalesced", st.Coalesced, "failed", st.Failures)
	return nil
}
