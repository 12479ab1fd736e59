// Command tinged serves the inference pipeline over HTTP: clients POST
// expression matrices to /jobs and poll for networks. See
// internal/server for the API.
//
//	tinged -addr :8080 -checkpoint-dir /var/lib/tinged
//	curl -s -X POST --data-binary @expr.tsv 'localhost:8080/jobs?permutations=30&dpi=1'
//	curl -s -X POST --data-binary @expr.tsv 'localhost:8080/jobs?precision=float32'
//	curl -s localhost:8080/jobs/job-1
//	curl -s localhost:8080/jobs/job-1/network > net.tsv
//	curl -s localhost:8080/metrics
//
// The server sheds load with 429 past -max-queued waiting jobs, evicts
// finished jobs after -job-ttl (and the oldest finished ones past
// -max-jobs), and exports Prometheus metrics at
// /metrics. On SIGINT/SIGTERM it stops accepting work and drains: with
// -checkpoint-dir set, the running scan is canceled and flushes its
// progress to a checkpoint, so resubmitting the same job to a restarted
// server resumes instead of recomputing; without it, the running job is
// allowed to finish (up to -shutdown-timeout).
//
// With -coordinator, tinged serves the same API but executes nothing
// locally: each scan is split into pair-tile chunks and fanned out to
// the worker tinged instances named by -workers (stock tinged — no
// special worker mode), merged bit-identically, cached by content
// address, and resumable through -checkpoint-dir:
//
//	tinged -addr :8081 &            # worker 1
//	tinged -addr :8082 &            # worker 2
//	tinged -coordinator -workers http://localhost:8081,http://localhost:8082 -addr :8080
//	curl -s -X POST --data-binary @expr.tsv 'localhost:8080/jobs?permutations=30&dpi=1'
//	curl -s -N localhost:8080/jobs/fl-1/events   # SSE progress stream
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for per-job scan checkpoints (enables shutdown/resume)")
	maxRunning := flag.Int("max-running", 1, "jobs executing concurrently")
	maxQueued := flag.Int("max-queued", 8, "jobs allowed to wait; more are shed with 429")
	jobTTL := flag.Duration("job-ttl", 15*time.Minute, "how long finished jobs stay queryable")
	maxJobs := flag.Int("max-jobs", 256, "registry size cap (oldest finished jobs evicted early)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 2*time.Minute, "drain budget after SIGTERM")
	logJSON := flag.Bool("log-json", false, "emit JSON logs instead of text")

	coordinator := flag.Bool("coordinator", false, "run as a fleet coordinator instead of a scan server")
	workers := flag.String("workers", "", "comma-separated worker base URLs (coordinator mode)")
	chunksPerScan := flag.Int("chunks-per-scan", 0, "chunk jobs per scan (coordinator mode; 0: 2x worker count)")
	chunkRetries := flag.Int("chunk-retries", 5, "attempts per chunk before the scan fails (coordinator mode)")
	chunkTimeout := flag.Duration("chunk-timeout", 10*time.Minute, "per-chunk-attempt deadline (coordinator mode)")
	cacheTTL := flag.Duration("cache-ttl", 15*time.Minute, "content-addressed result cache lifetime (coordinator mode)")
	flag.Parse()

	// The registry and admission bounds have no "unset" value: each one
	// means the same in both modes, so an out-of-range value is refused.
	var bad string
	switch {
	case *jobTTL <= 0:
		bad = fmt.Sprintf("-job-ttl %v: need a positive duration", *jobTTL)
	case *maxJobs < 1:
		bad = fmt.Sprintf("-max-jobs %d: need at least 1", *maxJobs)
	case *maxRunning < 1:
		bad = fmt.Sprintf("-max-running %d: need at least 1", *maxRunning)
	case *maxQueued < 0:
		bad = fmt.Sprintf("-max-queued %d: need at least 0", *maxQueued)
	}
	if bad != "" {
		fmt.Fprintln(os.Stderr, "tinged:", bad)
		os.Exit(1)
	}

	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	service := "tinged"
	if *coordinator {
		service = "tinged-coordinator"
	}
	logger := slog.New(handler).With("service", service)

	if *checkpointDir != "" {
		if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
			logger.Error("checkpoint dir", "error", err)
			os.Exit(1)
		}
	}

	var apiHandler http.Handler
	var drain func(context.Context) error

	if *coordinator {
		var urls []string
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, strings.TrimRight(u, "/"))
			}
		}
		if len(urls) == 0 {
			logger.Error("coordinator mode needs -workers")
			os.Exit(1)
		}
		co := fleet.New(urls)
		co.ChunksPerScan = *chunksPerScan
		co.MaxChunkRetries = *chunkRetries
		co.ChunkTimeout = *chunkTimeout
		co.CacheTTL = *cacheTTL
		co.TTL = *jobTTL
		co.MaxJobs = *maxJobs
		co.MaxActiveScans = *maxRunning + *maxQueued
		co.CheckpointDir = *checkpointDir
		co.Logger = logger
		apiHandler = co.Handler()
		drain = co.Shutdown
		logger.Info("fleet", "workers", urls)
	} else {
		srv := server.New()
		srv.CheckpointDir = *checkpointDir
		srv.MaxRunning = *maxRunning
		srv.MaxQueued = *maxQueued
		srv.TTL = *jobTTL
		srv.MaxJobs = *maxJobs
		srv.Logger = logger
		apiHandler = srv.Handler()
		drain = srv.Shutdown
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           apiHandler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr,
		"max_running", *maxRunning, "max_queued", *maxQueued, "checkpoint_dir", *checkpointDir)

	select {
	case err := <-errc:
		logger.Error("serve", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("signal received, draining", "timeout", *shutdownTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "error", err)
	}
	if err := drain(drainCtx); err != nil {
		logger.Error("job drain incomplete", "error", err)
		os.Exit(1)
	}
	logger.Info("shutdown complete")
}
