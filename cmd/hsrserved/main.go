// Command hsrserved serves the simulation suite over HTTP: submit flow,
// campaign and experiment jobs as JSON to POST /v1/jobs and read back an
// NDJSON stream of progress events ending in the same telemetry report
// hsrbench -metrics writes. Results are bit-identical to the CLI for the
// same seed and scale — both surfaces share the experiment catalog, the
// flow cache and the report builder.
//
// Usage:
//
//	hsrserved [-addr :8096] [-role single|worker|coordinator]
//	          [-fleet URL,URL,...] [-unit-flows N] [-unit-timeout D]
//	          [-unit-retries N] [-heartbeat-interval D] [-hedge-after D]
//	          [-workers N] [-queue N] [-flow-parallelism N]
//	          [-dag-jobs N] [-cache DIR] [-cache-max-bytes N]
//	          [-max-flow-duration D] [-job-timeout D] [-drain-timeout D]
//	          [-stream-write-timeout D] [-trace] [-trace-jobs N] [-pprof]
//	          [-log-level debug|info|warn|error] [-version]
//
// Endpoints: POST /v1/jobs (submit, streams NDJSON), GET /v1/experiments
// (the catalog), GET /healthz (JSON liveness + version), GET /readyz
// (readiness: 503 while draining; queue occupancy and worker-fleet health),
// GET /metrics (text exposition of server, cache, campaign and fleet
// counters), GET /v1/jobs/{id}/trace (with -trace: a completed job's span
// tree in the Perfetto/Chrome trace-event format) and, with -pprof, the
// net/http/pprof surface under /debug/pprof/.
//
// Roles: "single" (default) runs everything in-process. "worker" is the
// same server, conventionally pointed at by a coordinator, which sends it
// flow-range unit jobs. "coordinator" (-fleet required) fans campaign and
// experiment jobs out over the worker fleet and reassembles results
// byte-identically to a single-node run — with per-unit retries, worker
// health tracking, straggler hedging and a local fallback that finishes the
// campaign even with every worker lost (see docs/SERVICE.md).
//
// Admission control: at most -workers jobs run concurrently and at most
// -queue wait; beyond that, submissions fail fast with 429 + Retry-After.
// SIGINT/SIGTERM drain gracefully: admission stops (503), running jobs and
// their streams finish (up to -drain-timeout), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hsrserved:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hsrserved", flag.ContinueOnError)
	addr := fs.String("addr", ":8096", "listen address")
	role := fs.String("role", "single", "node role: single, worker or coordinator")
	fleet := fs.String("fleet", "", "comma-separated worker base URLs (coordinator role)")
	unitFlows := fs.Int("unit-flows", 16, "flows per distributed work unit (coordinator role)")
	unitTimeout := fs.Duration("unit-timeout", time.Minute, "per-unit remote deadline before retry (coordinator role)")
	unitRetries := fs.Int("unit-retries", 3, "remote attempts per unit before local fallback (coordinator role)")
	heartbeat := fs.Duration("heartbeat-interval", 2*time.Second, "worker health-probe period (coordinator role)")
	hedgeAfter := fs.Duration("hedge-after", 0, "duplicate straggler units after this long; 0 disables (coordinator role)")
	workers := fs.Int("workers", 2, "jobs executing concurrently")
	queue := fs.Int("queue", 8, "jobs accepted but not yet running before submissions get 429")
	flowPar := fs.Int("flow-parallelism", 0, "concurrent flow simulations per job (0 = GOMAXPROCS)")
	dagJobs := fs.Int("dag-jobs", 1, "concurrent experiment tasks per job")
	cacheDir := fs.String("cache", "", "flow result cache directory shared across all jobs")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "bound the cache directory's entry bytes, evicting oldest entries first (0 = unbounded)")
	maxFlowDur := fs.Duration("max-flow-duration", 10*time.Minute, "reject jobs asking for longer simulated flows")
	jobTimeout := fs.Duration("job-timeout", 15*time.Minute, "per-job deadline cap (and default when the job names none)")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "how long a shutdown signal waits for running jobs before exiting anyway")
	streamWriteTimeout := fs.Duration("stream-write-timeout", 30*time.Second, "per-write deadline on NDJSON streams; a slower client's stream aborts and its job is cancelled")
	trace := fs.Bool("trace", false, "record a span tree per job, served at GET /v1/jobs/{id}/trace (Perfetto-loadable; never perturbs results)")
	traceJobs := fs.Int("trace-jobs", 64, "completed-job traces retained for /v1/jobs/{id}/trace")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in profiling surface)")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(buildinfo.Line("hsrserved"))
		return nil
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})).With("svc", "hsrserved")
	cfg := serve.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		FlowParallelism:    *flowPar,
		DAGJobs:            *dagJobs,
		StreamWriteTimeout: *streamWriteTimeout,
		Limits: serve.Limits{
			MaxFlowDuration: *maxFlowDur,
			MaxTimeout:      *jobTimeout,
		},
		Log:         log,
		Trace:       *trace,
		TraceJobs:   *traceJobs,
		EnablePprof: *pprofFlag,
	}
	if *cacheDir != "" {
		cache, err := dataset.OpenFlowCache(*cacheDir)
		if err != nil {
			return err
		}
		if err := cache.SetMaxBytes(*cacheMaxBytes); err != nil {
			return err
		}
		cfg.Cache = cache
	}

	switch *role {
	case "single", "worker":
		if *fleet != "" {
			return fmt.Errorf("-fleet requires -role coordinator")
		}
	case "coordinator":
		urls := splitFleet(*fleet)
		if len(urls) == 0 {
			return fmt.Errorf("-role coordinator needs -fleet with at least one worker URL")
		}
		coord, err := dist.New(dist.Config{
			Workers:           urls,
			UnitFlows:         *unitFlows,
			UnitTimeout:       *unitTimeout,
			MaxAttempts:       *unitRetries,
			HeartbeatInterval: *heartbeat,
			HedgeAfter:        *hedgeAfter,
			Seed:              time.Now().UnixNano(), // jitter only; never touches results
			Log:               log.With("comp", "dist"),
		})
		if err != nil {
			return err
		}
		defer coord.Close()
		cfg.Runner = coord.RunCampaign
		cfg.Fleet = coord.FleetHealth
		cfg.FleetCounters = coord.Counters
	default:
		return fmt.Errorf("unknown -role %q (single, worker or coordinator)", *role)
	}
	srv := serve.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Info("listening", "addr", ln.Addr(), "role", *role, "workers", *workers,
		"queue", *queue, "version", buildinfo.Version())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	log.Info("shutdown signal: draining", "timeout", *drainTimeout)
	srv.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Shutdown waits for the streaming handlers (and so the running jobs)
	// to finish before closing the listener's connections.
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	srv.Drain()
	// CI's distributed smoke greps for this exact message.
	log.Info("drained, exiting")
	return nil
}

// splitFleet parses the -fleet flag into worker URLs.
func splitFleet(s string) []string {
	var urls []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			urls = append(urls, strings.TrimRight(part, "/"))
		}
	}
	return urls
}
