// Package serve is the simulation-as-a-service layer: an HTTP server that
// accepts simulation jobs (single flows, the Table I campaigns, named
// catalog experiments) as JSON, validates them against the same schemas the
// CLIs use, executes them on a bounded worker pool with admission control,
// and streams progress plus a final telemetry report as NDJSON. Results are
// bit-identical to the same job run through cmd/hsrbench: both surfaces
// share the experiment catalog, the flow cache and the report builder.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/logging"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// Config configures a Server. The zero value is usable: one worker, a
// one-deep queue, no cache.
type Config struct {
	// Workers is the number of jobs executing concurrently (min 1).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running (min 1); a full
	// queue rejects submissions with 429 + Retry-After.
	QueueDepth int
	// Cache, when non-nil, is the flow-result cache shared across every job
	// (identical flows across requests are served from disk, identical
	// in-flight computations are deduplicated).
	Cache *dataset.FlowCache
	// FlowParallelism bounds concurrent flow simulations inside one job
	// (0 = GOMAXPROCS). With several workers, set it so
	// Workers*FlowParallelism matches the machine.
	FlowParallelism int
	// DAGJobs bounds concurrent experiment tasks inside one job (min 1).
	DAGJobs int
	// Limits is the admission policy for job contents. Zero fields default
	// to MaxFlowDuration 10m, MaxTimeout 15m; MaxTimeout is also the
	// default per-job deadline when a spec names none.
	Limits Limits
	// Log, when non-nil, receives one structured line per job lifecycle
	// edge (job/trace IDs on every line). Nil logs nothing.
	Log *logging.Logger
	// Trace records a span tree for every job (job, queue-wait, task,
	// campaign, flow and cache spans), retained for TraceJobs completed jobs
	// and served by GET /v1/jobs/{id}/trace. Independently of this flag, a
	// job arriving with a trace context (JobSpec.Trace) is always traced and
	// its spans ship back on the terminal event. Tracing never perturbs
	// results — byte-identity holds with it on.
	Trace bool
	// TraceJobs bounds the per-job trace retention (default 64).
	TraceJobs int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (opt-in: the
	// profiling surface stays off unless the operator asks for it).
	EnablePprof bool
	// StreamWriteTimeout bounds each NDJSON response write: a client that
	// stops reading for longer aborts its stream (counted in
	// streams_aborted_total) and cancels its job, instead of pinning a
	// worker slot behind a dead socket. 0 means 30s.
	StreamWriteTimeout time.Duration
	// Runner, when non-nil, replaces dataset.RunCampaign for campaign and
	// experiment jobs — this is how a coordinator node routes the shared
	// campaigns through its worker fleet (internal/dist) while the job
	// surface stays identical to single-node.
	Runner experiments.CampaignRunner
	// Fleet, when non-nil, reports the coordinator's per-worker health for
	// /readyz. Nil means this node has no fleet (single or worker role).
	Fleet func() []FleetWorker
	// FleetCounters, when non-nil, snapshots the coordinator's distributed
	// execution counters for /metrics and for job reports.
	FleetCounters func() telemetry.Fleet
}

// FleetWorker is one worker's health as seen by a coordinator, rendered in
// /readyz.
type FleetWorker struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// ConsecutiveFails counts heartbeat failures since the last success.
	ConsecutiveFails int `json:"consecutive_fails,omitempty"`
	// UnitsDone counts units this worker completed successfully.
	UnitsDone int64 `json:"units_done"`
}

// Server is the HTTP service. Create with New, mount via Handler, stop with
// StartDrain + Drain.
type Server struct {
	cfg Config
	mux *http.ServeMux
	pl  *pool

	draining atomic.Bool
	jobSeq   atomic.Int64

	submitted      atomic.Int64
	accepted       atomic.Int64
	rejected       atomic.Int64
	completed      atomic.Int64
	failed         atomic.Int64
	streamsAborted atomic.Int64

	// agg accumulates every job's campaign counters into one server-wide
	// aggregate for /metrics.
	agg *telemetry.Campaign

	// traces retains completed jobs' span batches for /v1/jobs/{id}/trace.
	traces *traceStore

	// latMu guards the latency distributions scraped by /metrics.
	latMu     sync.Mutex
	queueWait telemetry.Dist // ms from admission to a worker picking the job up
	unitDur   telemetry.Dist // ms of unit-job execution (the fleet's work grain)
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1
	}
	if cfg.DAGJobs < 1 {
		cfg.DAGJobs = 1
	}
	if cfg.Limits.MaxFlowDuration == 0 {
		cfg.Limits.MaxFlowDuration = 10 * time.Minute
	}
	if cfg.Limits.MaxTimeout == 0 {
		cfg.Limits.MaxTimeout = 15 * time.Minute
	}
	if cfg.StreamWriteTimeout <= 0 {
		cfg.StreamWriteTimeout = 30 * time.Second
	}
	if cfg.TraceJobs < 1 {
		cfg.TraceJobs = 64
	}
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		pl:     newPool(cfg.Workers, cfg.QueueDepth),
		agg:    telemetry.NewCampaign(),
		traces: newTraceStore(cfg.TraceJobs),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		// Opt-in profiling surface: the index route covers the named
		// profiles (heap, goroutine, block, mutex, ...); the four special
		// handlers need explicit routes. Registered without a method so the
		// pprof tool's POSTs (symbol) work too.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// StartDrain stops admitting jobs: new submissions get 503, /healthz flips
// to draining. Streaming responses for accepted jobs keep running.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain blocks until every accepted job has finished. Call after StartDrain
// (and typically after http.Server.Shutdown has drained the handlers).
func (s *Server) Drain() {
	s.draining.Store(true)
	s.pl.drain()
}

// healthzBody is the /healthz JSON document.
type healthzBody struct {
	Status        string `json:"status"` // "ok" or "draining"
	Version       string `json:"version"`
	Workers       int    `json:"workers"`
	QueueDepth    int64  `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	JobsRunning   int64  `json:"jobs_running"`
}

// handleHealthz is the liveness probe: it always answers 200 while the
// process is up — a draining server is still alive (it reports "draining"
// in the body for humans). Readiness lives at /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := healthzBody{
		Status:        "ok",
		Version:       buildinfo.Version(),
		Workers:       s.cfg.Workers,
		QueueDepth:    s.pl.depth(),
		QueueCapacity: s.cfg.QueueDepth,
		JobsRunning:   s.pl.active(),
	}
	if s.draining.Load() {
		body.Status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// readyzBody is the /readyz JSON document.
type readyzBody struct {
	// Status is "ready", "degraded" (coordinator with no healthy workers —
	// still serving, via local fallback) or "draining".
	Status        string `json:"status"`
	QueueDepth    int64  `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	QueueFull     bool   `json:"queue_full"`
	JobsRunning   int64  `json:"jobs_running"`
	// Fleet is the coordinator's per-worker health; absent on single and
	// worker nodes.
	Fleet []FleetWorker `json:"fleet,omitempty"`
}

// handleReadyz is the readiness probe: 503 while draining (take the node
// out of rotation; in-flight streams finish), 200 otherwise. The body adds
// what a balancer or operator needs to weigh the node: queue occupancy and,
// on a coordinator, the worker fleet's health. A coordinator whose whole
// fleet is unhealthy is degraded, not unready — it still completes
// campaigns through its local fallback.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body := readyzBody{
		Status:        "ready",
		QueueDepth:    s.pl.depth(),
		QueueCapacity: s.cfg.QueueDepth,
		JobsRunning:   s.pl.active(),
	}
	body.QueueFull = body.QueueDepth >= int64(s.cfg.QueueDepth)
	status := http.StatusOK
	if s.cfg.Fleet != nil {
		body.Fleet = s.cfg.Fleet()
		healthy := 0
		for _, wk := range body.Fleet {
			if wk.Healthy {
				healthy++
			}
		}
		if len(body.Fleet) > 0 && healthy == 0 {
			body.Status = "degraded"
		}
	}
	if s.draining.Load() {
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Experiments []string                   `json:"experiments"`
		Catalog     []experiments.CatalogEntry `json:"catalog"`
	}{experiments.CatalogNames(), experiments.CatalogList()})
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.submitted.Add(1)
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		s.rejected.Add(1)
		httpError(w, http.StatusBadRequest, fmt.Sprintf("serve: bad job body: %v", err))
		return
	}
	if err := spec.Validate(s.cfg.Limits); err != nil {
		s.rejected.Add(1)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.draining.Load() {
		s.rejected.Add(1)
		httpError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}

	jobID := fmt.Sprintf("job-%d", s.jobSeq.Add(1))
	st := newStream()
	// meta carries the admission timestamp (queue-wait measurement) and,
	// when this job is traced, the trace collector plus the job root span —
	// which starts at admission, so queue wait is inside the job span.
	meta := &jobMeta{submitted: time.Now()}
	if s.cfg.Trace || spec.Trace != nil {
		traceID, parent := jobID, ""
		if spec.Trace != nil {
			traceID, parent = spec.Trace.ID, spec.Trace.Parent
		}
		meta.tr = tracing.New(traceID)
		meta.root = meta.tr.StartSpanAt(parent, "job", jobID, meta.submitted)
		meta.root.SetAttr("kind", spec.Kind)
		meta.root.SetAttr("seed", strconv.FormatInt(spec.seed(), 10))
	}
	// The job runs under the request context plus the job deadline: a gone
	// client or an expired deadline cancels the schedule, which skips
	// unstarted tasks and reports the completed prefix.
	timeout := s.cfg.Limits.MaxTimeout
	if spec.TimeoutMS > 0 {
		if d := time.Duration(spec.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	jobCtx, cancel := context.WithTimeout(r.Context(), timeout)
	if err := s.pl.submit(func() {
		defer cancel()
		defer st.close()
		s.runJob(jobCtx, jobID, &spec, st, meta)
	}); err != nil {
		cancel()
		s.rejected.Add(1)
		if err == ErrQueueFull {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err.Error())
			return
		}
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.accepted.Add(1)
	kv := []any{"job", jobID, "kind", spec.Kind, "seed", spec.seed(), "queue", s.pl.depth()}
	if meta.tr != nil {
		kv = append(kv, "trace", meta.tr.ID())
	}
	s.cfg.Log.Info("job accepted", kv...)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Job-Id", jobID)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	alive := true
	writeEvent := func(e Event) {
		if !alive {
			return
		}
		// Each write runs under its own deadline: a client that stops
		// reading cannot hold this handler (and its worker slot) hostage —
		// after one timeout the stream aborts, the job's context is
		// cancelled, and the loop below keeps draining events so the worker
		// finishes promptly either way. SetWriteDeadline is best-effort
		// (test recorders don't support it); a plain write error means the
		// client is gone and aborts the same way.
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
		if err := enc.Encode(e); err != nil {
			alive = false
			s.streamsAborted.Add(1)
			st.abort()
			cancel()
			s.cfg.Log.Warn("stream aborted", "job", jobID, "err", err)
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	writeEvent(Event{
		Event:      "accepted",
		JobID:      jobID,
		Version:    buildinfo.Version(),
		QueueDepth: s.pl.depth(),
	})
	for e := range st.ch {
		writeEvent(e)
	}
}

// jobMeta carries per-job bookkeeping from admission to the worker
// goroutine: the submission time (queue-wait measurement) and the optional
// trace collector with the job's root span.
type jobMeta struct {
	submitted time.Time
	tr        *tracing.Trace
	root      *tracing.Span
}

// runJob executes one admitted job on a worker goroutine.
func (s *Server) runJob(ctx context.Context, jobID string, spec *JobSpec, st *stream, meta *jobMeta) {
	start := time.Now()
	queueWait := start.Sub(meta.submitted)
	s.latMu.Lock()
	s.queueWait.Add(float64(queueWait) / float64(time.Millisecond))
	s.latMu.Unlock()
	if meta.tr != nil {
		qw := meta.tr.StartSpanAt(meta.root.ID(), "queue-wait", "queue-wait", meta.submitted)
		qw.End()
	}
	var terminal Event
	switch spec.Kind {
	case KindFlow:
		terminal = s.runFlowJob(spec, meta)
	case KindUnit:
		terminal = s.runUnitJob(ctx, spec, st, meta)
	default:
		terminal = s.runScheduledJob(ctx, spec, st, start, meta)
	}
	terminal.JobID = jobID
	terminal.Version = buildinfo.Version()
	terminal.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	if spec.Kind == KindUnit {
		s.latMu.Lock()
		s.unitDur.Add(terminal.ElapsedMS)
		s.latMu.Unlock()
	}
	if terminal.Event == "error" {
		s.failed.Add(1)
	} else {
		s.completed.Add(1)
	}
	if meta.tr != nil {
		meta.root.SetAttr("status", terminal.Status)
		meta.root.End()
		spans := meta.tr.Spans()
		s.traces.put(jobID, spans)
		if spec.Trace != nil {
			// The submitter asked for this trace: ship the batch back on the
			// terminal event so the coordinator can stitch it.
			terminal.Spans = spans
		}
	}
	kv := []any{"job", jobID, "event", terminal.Event, "status", terminal.Status,
		"elapsed", time.Since(start).Round(time.Millisecond)}
	if meta.tr != nil {
		kv = append(kv, "trace", meta.tr.ID())
	}
	s.cfg.Log.Info("job finished", kv...)
	st.emit(terminal)
}

// runFlowJob simulates (or serves from cache) one flow.
func (s *Server) runFlowJob(spec *JobSpec, meta *jobMeta) Event {
	sc, err := spec.flowScenario(s.cfg.Limits)
	if err != nil {
		return Event{Event: "error", Status: "error", Error: err.Error()}
	}
	var sp *tracing.Span
	if meta.tr != nil {
		sp = meta.tr.StartSpan(meta.root.ID(), "flow", sc.ID)
	}
	var ent dataset.CachedFlow
	var shared bool
	if s.cfg.Cache != nil {
		ent, shared, err = s.cfg.Cache.GetOrCompute(sc, func() (dataset.CachedFlow, error) {
			m, stats, err := dataset.RunFlowMetrics(sc)
			return dataset.CachedFlow{Metrics: m, Stats: stats}, err
		})
	} else {
		ent.Metrics, ent.Stats, err = dataset.RunFlowMetrics(sc)
	}
	if sp != nil {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.SetAttr("cached", strconv.FormatBool(shared))
		sp.End()
	}
	if err != nil {
		return Event{Event: "error", Status: "error", Error: err.Error()}
	}
	return Event{Event: "result", Status: "ok", Flow: &ent, Cached: shared}
}

// runUnitJob executes one flow-range work unit of a distributed campaign:
// it re-derives the campaign's flow plan from the unit's parameters (the
// plan is a pure function of them, so it matches the coordinator's), then
// simulates the unit's index range with telemetry attached to every flow.
// Results go through the telemetry-complete cache path when a cache is
// configured, so a reassigned or hedged duplicate of this unit re-serves
// bit-identical payloads from disk instead of simulating again. Either way
// each flow ships as encoded payload bytes: a hit forwards the verified
// entry bytes without decoding them, a computed flow is encoded once.
func (s *Server) runUnitJob(ctx context.Context, spec *JobSpec, st *stream, meta *jobMeta) Event {
	cfg, err := spec.Unit.campaignConfig()
	if err != nil {
		return Event{Event: "error", Status: "error", Error: err.Error()}
	}
	plan, err := dataset.PlanCampaign(cfg)
	if err != nil {
		return Event{Event: "error", Status: "error", Error: err.Error()}
	}
	start, end := spec.Unit.Start, spec.Unit.End
	if end > len(plan) {
		return Event{Event: "error", Status: "error",
			Error: fmt.Sprintf("serve: unit range [%d, %d) exceeds the campaign's %d flows", start, end, len(plan))}
	}
	if meta.tr != nil {
		meta.root.SetAttr("unit", fmt.Sprintf("[%d,%d)", start, end))
		if spec.Unit.Faults != "" {
			meta.root.SetAttr("faults", spec.Unit.Faults)
		}
	}
	res := &UnitResult{Start: start, End: end, Flows: make([]UnitFlow, end-start)}
	errs := make([]error, end-start)
	par := s.cfg.FlowParallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	var done, hits atomic.Int64
	for i := start; i < end; i++ {
		if ctx.Err() != nil {
			errs[i-start] = fmt.Errorf("flow %s: %w", plan[i].Scenario.ID, ctx.Err())
			continue
		}
		j := plan[i]
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			var fsp *tracing.Span
			if meta.tr != nil {
				fsp = meta.tr.StartSpan(meta.root.ID(), "flow", j.Scenario.ID)
				fsp.SetAttr("index", strconv.Itoa(j.Index))
				fsp.SetAttr("operator", j.Row.Operator.Name)
			}
			var p dataset.FlowPayload
			var hit bool
			var err error
			if s.cfg.Cache != nil {
				var csp *tracing.Span
				if fsp != nil {
					csp = meta.tr.StartSpan(fsp.ID(), "cache", j.Scenario.ID)
				}
				p, hit, err = s.cfg.Cache.GetOrComputeFull(j.Scenario, func() (dataset.CachedFlow, error) {
					var ksp *tracing.Span
					if fsp != nil {
						ksp = meta.tr.StartSpan(csp.ID(), "compute", j.Scenario.ID)
					}
					full, err := dataset.RunFlowFull(j.Scenario)
					if ksp != nil {
						if err == nil {
							ksp.SetVirtual(0, full.Telemetry.Kernel.VirtualNS)
						}
						ksp.End()
					}
					return full, err
				})
				if csp != nil {
					csp.SetAttr("hit", strconv.FormatBool(hit))
					csp.End()
				}
			} else {
				var ksp *tracing.Span
				if fsp != nil {
					ksp = meta.tr.StartSpan(fsp.ID(), "compute", j.Scenario.ID)
				}
				var full dataset.CachedFlow
				full, err = dataset.RunFlowFull(j.Scenario)
				if ksp != nil {
					if err == nil {
						ksp.SetVirtual(0, full.Telemetry.Kernel.VirtualNS)
					}
					ksp.End()
				}
				if err == nil {
					p, err = dataset.EncodeFlowPayload(full)
				}
			}
			if err != nil {
				if fsp != nil {
					fsp.SetAttr("error", err.Error())
					fsp.End()
				}
				errs[j.Index-start] = fmt.Errorf("flow %s: %w", j.Scenario.ID, err)
				return
			}
			if hit {
				hits.Add(1)
			}
			if fsp != nil {
				fsp.SetAttr("cached", strconv.FormatBool(hit))
				fsp.SetVirtual(0, p.VirtualNS)
				fsp.End()
			}
			res.Flows[j.Index-start] = UnitFlow{Index: j.Index, Flow: p.JSON, Cached: hit}
			st.tryEmit(Event{Event: "flows", Done: int(done.Add(1)), Total: end - start})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Event{Event: "error", Status: "error", Error: err.Error()}
		}
	}
	res.CacheHits = int(hits.Load())
	return Event{Event: "result", Status: "ok", Unit: res}
}

// runScheduledJob executes a campaign or experiment job through the shared
// catalog and reports exactly like hsrbench -metrics.
func (s *Server) runScheduledJob(ctx context.Context, spec *JobSpec, st *stream, start time.Time, meta *jobMeta) Event {
	cfg := spec.experimentsConfig()
	cfg.Parallelism = s.cfg.FlowParallelism
	cfg.Cache = s.cfg.Cache
	cfg.Runner = s.cfg.Runner
	if meta.tr != nil {
		cfg.Trace = meta.tr
		cfg.TraceParent = meta.root.ID()
	}
	camp := telemetry.NewCampaign()
	cfg.Telemetry = camp
	cfg.Progress = func(done, total int) {
		st.tryEmit(Event{Event: "flows", Done: done, Total: total})
	}

	cat, err := experiments.NewCatalog(ctx, cfg, spec.Run, experiments.CatalogOptions{
		ForceCampaigns: spec.Kind == KindCampaign,
	})
	if err != nil {
		return Event{Event: "error", Status: "error", Error: err.Error()}
	}
	results, err := experiments.RunDAGProgress(ctx, cat.Tasks, s.cfg.DAGJobs,
		func(res experiments.TaskResult, completed, total int) {
			status := "ok"
			switch {
			case res.Skipped:
				status = "skipped"
			case res.Err != nil:
				status = "failed"
			}
			st.tryEmit(Event{Event: "task", Task: res.Name, Status: status,
				Completed: completed, Total: total})
		})
	if err != nil {
		return Event{Event: "error", Status: "error", Error: err.Error()}
	}

	var cc *telemetry.Cache
	if s.cfg.Cache != nil {
		c := s.cfg.Cache.Counters()
		cc = &c
	}
	rep := experiments.MetricsReport("hsrserved", cfg.Seed, camp, cc, results, start)
	rep.CC = cat.CCReport()
	if s.cfg.FleetCounters != nil {
		f := s.cfg.FleetCounters()
		rep.Fleet = &f
	}
	s.agg.Merge(camp)

	sum := Summary{}
	var outputs []TaskOutput
	for _, r := range results {
		switch {
		case r.Skipped:
			sum.Skipped++
		case r.Err != nil:
			sum.Failed++
		default:
			sum.Completed++
			if r.Output != "" {
				outputs = append(outputs, TaskOutput{Name: r.Name, Output: r.Output})
			}
		}
	}
	status := "ok"
	if sum.Failed > 0 || sum.Skipped > 0 {
		status = "partial"
	}
	return Event{Event: "result", Status: status, Summary: &sum, Report: rep, Outputs: outputs}
}
