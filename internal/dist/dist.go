// Package dist is the distributed-campaign layer: a coordinator that splits
// a synthetic measurement campaign into flow-range work units, dispatches
// them to hsrserved worker nodes over the existing HTTP/NDJSON job protocol,
// and reassembles the per-flow results into output byte-identical to a
// single-node run — at any worker count, under worker loss, stalls, retries,
// reassignment and hedging.
//
// Identity holds by construction, not by luck. The flow plan is a pure
// function of the campaign config, so coordinator and workers agree on what
// every flow index means without shipping scenarios. Workers always simulate
// with telemetry attached and ship each flow's exact accumulator state
// (telemetry.FlowState) inside its binary flow payload, the bytes of its
// cache entry, which carry every float's exact bits
// (dataset.DecodeFlowPayload checks them on arrival). The coordinator replays
// AddFlow strictly in global flow order — the same call sequence a
// single-node campaign makes — so even the order-sensitive floating-point
// aggregates land bit for bit. Retries and duplicated (hedged or reassigned)
// executions are harmless: flows are deterministic for their key, duplicate
// unit results are discarded first-result-wins, and workers' content-
// addressed caches turn re-execution into a disk read.
//
// Robustness: per-unit deadlines with exponential backoff plus seeded
// jitter, bounded remote attempts per unit with a local-execution fallback,
// heartbeat-based worker health with ejection and readmission, straggler
// hedging, and a degraded mode where a coordinator that has lost every
// worker finishes the campaign locally and says so.
package dist

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// Config configures a Coordinator. Workers is required; every other field
// has a serviceable default.
type Config struct {
	// Workers is the fleet's base URLs (e.g. "http://10.0.0.2:8080").
	Workers []string
	// UnitFlows is the number of flows per work unit (default 16). Smaller
	// units lose less on a worker failure; larger units amortize dispatch.
	UnitFlows int
	// UnitTimeout is the per-unit deadline for one remote attempt (default
	// 60s). A unit that misses it is retried, elsewhere or locally.
	UnitTimeout time.Duration
	// MaxAttempts bounds remote attempts per unit before the coordinator
	// executes it locally (default 3).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential retry backoff
	// (defaults 100ms and 5s); actual delays are jittered from Seed.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// WorkerSlots is the number of units one worker executes concurrently
	// (default 2) — keep Workers*FlowParallelism on the worker in mind.
	WorkerSlots int
	// HeartbeatInterval is the worker health-probe period (default 2s);
	// 0 < FailAfter consecutive probe failures eject a worker (default 2),
	// the next success readmits it.
	HeartbeatInterval time.Duration
	FailAfter         int
	// HedgeAfter duplicates a unit still in flight after this long onto
	// another worker (straggler hedging); 0 disables hedging.
	HedgeAfter time.Duration
	// Seed seeds the retry jitter (timing only — results never depend on
	// it).
	Seed int64
	// Log, when non-nil, receives one structured line per dispatch edge
	// (unit range, worker URL, attempt and trace IDs as fields). Nil logs
	// nothing.
	Log *slog.Logger
	// HTTPClient, when non-nil, overrides the fleet transport (tests inject
	// chaos here).
	HTTPClient *http.Client
}

// worker is one fleet member's live state.
type worker struct {
	url       string
	healthy   atomic.Bool
	fails     atomic.Int32
	wasLost   atomic.Bool
	unitsDone atomic.Int64
}

// Coordinator fans campaigns out over a worker fleet. Create with New,
// stop with Close. Safe for concurrent campaigns.
type Coordinator struct {
	cfg     Config
	client  *http.Client
	workers []*worker

	jitterMu sync.Mutex
	jitter   *rand.Rand

	units             atomic.Int64
	unitsDispatched   atomic.Int64
	unitsCompleted    atomic.Int64
	unitsLocal        atomic.Int64
	retries           atomic.Int64
	reassignments     atomic.Int64
	hedges            atomic.Int64
	duplicateResults  atomic.Int64
	workersLost       atomic.Int64
	workersReadmitted atomic.Int64
	degraded          atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	hbWG     sync.WaitGroup
}

// New builds a Coordinator over the given fleet and starts its heartbeat
// monitors.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("dist: coordinator needs at least one worker URL")
	}
	if cfg.UnitFlows <= 0 {
		cfg.UnitFlows = 16
	}
	if cfg.UnitTimeout <= 0 {
		cfg.UnitTimeout = 60 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.WorkerSlots <= 0 {
		cfg.WorkerSlots = 2
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 2 * time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 2
	}
	if cfg.Log == nil {
		// Discard, at a level above every slog level: a line is dropped
		// before it is formatted.
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	c := &Coordinator{
		cfg:    cfg,
		client: cfg.HTTPClient,
		jitter: rand.New(rand.NewSource(cfg.Seed)),
		stop:   make(chan struct{}),
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	for _, u := range cfg.Workers {
		w := &worker{url: u}
		w.healthy.Store(true)
		c.workers = append(c.workers, w)
	}
	for _, w := range c.workers {
		c.hbWG.Add(1)
		go c.heartbeat(w)
	}
	return c, nil
}

// Close stops the heartbeat monitors. In-flight campaigns finish on their
// own; Close does not cancel them.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.hbWG.Wait()
}

// Runner adapts the coordinator to the experiments layer's pluggable
// campaign runner.
func (c *Coordinator) Runner() func(dataset.CampaignConfig) (*dataset.Campaign, error) {
	return c.RunCampaign
}

// FleetHealth snapshots per-worker health for /readyz.
func (c *Coordinator) FleetHealth() []serve.FleetWorker {
	out := make([]serve.FleetWorker, len(c.workers))
	for i, w := range c.workers {
		out[i] = serve.FleetWorker{
			URL:              w.url,
			Healthy:          w.healthy.Load(),
			ConsecutiveFails: int(w.fails.Load()),
			UnitsDone:        w.unitsDone.Load(),
		}
	}
	return out
}

// Counters snapshots the coordinator's distributed-execution counters.
func (c *Coordinator) Counters() telemetry.Fleet {
	healthy := int64(0)
	for _, w := range c.workers {
		if w.healthy.Load() {
			healthy++
		}
	}
	return telemetry.Fleet{
		Workers:           healthy,
		Units:             c.units.Load(),
		UnitsDispatched:   c.unitsDispatched.Load(),
		UnitsCompleted:    c.unitsCompleted.Load(),
		UnitsLocal:        c.unitsLocal.Load(),
		Retries:           c.retries.Load(),
		Reassignments:     c.reassignments.Load(),
		Hedges:            c.hedges.Load(),
		DuplicateResults:  c.duplicateResults.Load(),
		WorkersLost:       c.workersLost.Load(),
		WorkersReadmitted: c.workersReadmitted.Load(),
		Degraded:          c.degraded.Load(),
	}
}

// heartbeat probes one worker's /readyz until Close: FailAfter consecutive
// failures eject it from dispatch, the next success readmits it.
func (c *Coordinator) heartbeat(w *worker) {
	defer c.hbWG.Done()
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		ok := c.probe(w)
		if ok {
			w.fails.Store(0)
			if !w.healthy.Swap(true) {
				c.workersReadmitted.Add(1)
				w.wasLost.Store(false)
				c.cfg.Log.Info("worker readmitted", "worker", w.url)
			}
			continue
		}
		if int(w.fails.Add(1)) >= c.cfg.FailAfter {
			if w.healthy.Swap(false) {
				c.workersLost.Add(1)
				w.wasLost.Store(true)
				c.cfg.Log.Warn("worker ejected", "worker", w.url, "fails", w.fails.Load())
			}
		}
	}
}

// probe is one readiness check.
func (c *Coordinator) probe(w *worker) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HeartbeatInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// backoff returns the jittered delay before a unit's next attempt.
func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase << uint(attempt)
	if d <= 0 || d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	c.jitterMu.Lock()
	f := 0.5 + c.jitter.Float64()/2 // [0.5, 1.0): full delay is the ceiling
	c.jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

// unit is one flow-range work item and its completion state.
type unit struct {
	start, end int
	// state: 0 open, 1 done. The first finisher (remote, hedged duplicate,
	// or local fallback) wins the CAS; later results are discarded — they
	// are bit-identical by determinism, so dropping them is safe.
	state    atomic.Int32
	attempts atomic.Int32
	hedged   atomic.Bool
	// lastWorker is the URL of the most recent dispatch target, for the
	// reassignment counter. Guarded by the dispatch loop (benign racing:
	// it only feeds a counter).
	lastWorker atomic.Value // string
	flows      []dataset.FlowOutcome
	err        error
	mu         sync.Mutex // guards flows/err writes before the CAS publishes
	// span is the unit's trace span (nil when the campaign is untraced),
	// opened at planning and ended by the winning complete().
	span *tracing.Span
}

// run is one campaign's dispatch state.
type run struct {
	cfg     dataset.CampaignConfig
	plan    []dataset.PlannedFlow
	units   []*unit
	pending chan *unit
	// remaining counts open units; allDone closes when it reaches zero.
	remaining atomic.Int64
	allDone   chan struct{}
	doneFlows atomic.Int64
	ctx       context.Context
	// tr collects the campaign's spans (nil when untraced); worker-side span
	// batches shipped on unit results are stitched into it.
	tr *tracing.Trace
}

// complete publishes a unit result (first writer wins) and unblocks the
// campaign when it was the last open unit.
func (c *Coordinator) complete(r *run, u *unit, flows []dataset.FlowOutcome, err error) bool {
	u.mu.Lock()
	if !u.state.CompareAndSwap(0, 1) {
		u.mu.Unlock()
		c.duplicateResults.Add(1)
		return false
	}
	u.flows, u.err = flows, err
	u.mu.Unlock()
	if u.span != nil {
		if err != nil {
			u.span.SetAttr("error", err.Error())
		}
		u.span.SetAttr("attempts", fmt.Sprintf("%d", u.attempts.Load()))
		u.span.End()
	}
	c.unitsCompleted.Add(1)
	if r.cfg.Progress != nil {
		r.cfg.Progress(int(r.doneFlows.Add(int64(u.end-u.start))), len(r.plan))
	}
	if r.remaining.Add(-1) == 0 {
		close(r.allDone)
	}
	return true
}

// RunCampaign executes the campaign over the worker fleet. It satisfies
// experiments.CampaignRunner and honors the full CampaignConfig contract:
// results and telemetry (merged in global flow order) are byte-identical in
// the Counters() sense to dataset.RunCampaign, cached or not — every flow
// contributes its telemetry exactly once, wherever it physically ran and
// whether it simulated or was served from a worker's cache, and wall-clock
// resource fields are host measurements by design.
func (c *Coordinator) RunCampaign(cfg dataset.CampaignConfig) (*dataset.Campaign, error) {
	plan, err := dataset.PlanCampaign(cfg)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, plan: plan, allDone: make(chan struct{}), ctx: cfg.Ctx, tr: cfg.Trace}
	if r.ctx == nil {
		r.ctx = context.Background()
	}
	for start := 0; start < len(plan); start += c.cfg.UnitFlows {
		end := start + c.cfg.UnitFlows
		if end > len(plan) {
			end = len(plan)
		}
		u := &unit{start: start, end: end}
		u.lastWorker.Store("")
		if r.tr != nil {
			u.span = r.tr.StartSpan(cfg.TraceParent, "unit", fmt.Sprintf("unit[%d,%d)", start, end))
			u.span.SetAttr("flows", fmt.Sprintf("%d", end-start))
		}
		r.units = append(r.units, u)
	}
	c.units.Add(int64(len(r.units)))
	r.remaining.Store(int64(len(r.units)))
	// Capacity covers every retry and hedge requeue, so enqueues never
	// block or drop.
	r.pending = make(chan *unit, len(r.units)*(c.cfg.MaxAttempts+2))
	for _, u := range r.units {
		r.pending <- u
	}
	if len(r.units) == 0 {
		close(r.allDone)
	}

	var wg sync.WaitGroup
	for _, w := range c.workers {
		for slot := 0; slot < c.cfg.WorkerSlots; slot++ {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				c.dispatchLoop(r, w)
			}(w)
		}
	}

	// Degraded-mode watchdog: when every worker is ejected, the coordinator
	// drains pending units itself so the campaign always finishes. The
	// MaxAttempts local fallback already covers workers that fail requests
	// while still passing heartbeats; this covers a fully-lost fleet, where
	// nobody is pulling at all.
	watchdogDone := make(chan struct{})
	go func() {
		defer close(watchdogDone)
		t := time.NewTicker(c.cfg.HeartbeatInterval)
		defer t.Stop()
		sawDegraded := false
		for {
			select {
			case <-r.allDone:
				return
			case <-r.ctx.Done():
				return
			case <-t.C:
			}
			if c.healthyWorkers() > 0 {
				continue
			}
			if !sawDegraded {
				sawDegraded = true
				c.degraded.Add(1)
				c.cfg.Log.Warn("no healthy workers; finishing campaign locally", "mode", "degraded")
			}
			draining := true
			for draining {
				select {
				case u := <-r.pending:
					if u.state.Load() == 0 {
						c.runUnitLocal(r, u)
					}
				default:
					draining = false
				}
			}
		}
	}()

	select {
	case <-r.allDone:
	case <-r.ctx.Done():
	}
	wg.Wait()
	<-watchdogDone
	if err := r.ctx.Err(); err != nil {
		return nil, fmt.Errorf("dist: campaign: %w", err)
	}

	// Units cover the plan in order, and every completed one was validated
	// on arrival (readUnitResult) or run here (runUnitLocal), so their
	// outcomes are the plan-ordered chunks the reducer merges — the
	// coordinator's half of the byte-identity contract.
	chunks := make([][]dataset.FlowOutcome, len(r.units))
	for i, u := range r.units {
		if u.err != nil {
			return nil, u.err
		}
		chunks[i] = u.flows
	}
	return dataset.ReduceCampaign(cfg, plan, chunks...)
}

// healthyWorkers counts workers currently in dispatch rotation.
func (c *Coordinator) healthyWorkers() int {
	n := 0
	for _, w := range c.workers {
		if w.healthy.Load() {
			n++
		}
	}
	return n
}

// dispatchLoop is one worker slot: pull open units, execute them remotely,
// retry with backoff on failure, fall back to local execution once a unit
// exhausts its remote attempts. Unhealthy workers stop pulling (their
// queued share is picked up by the rest of the fleet — that is the
// reassignment path) and resume when readmitted.
func (c *Coordinator) dispatchLoop(r *run, w *worker) {
	for {
		if !w.healthy.Load() {
			select {
			case <-r.allDone:
				return
			case <-r.ctx.Done():
				return
			case <-time.After(c.cfg.HeartbeatInterval):
			}
			continue
		}
		var u *unit
		select {
		case <-r.allDone:
			return
		case <-r.ctx.Done():
			return
		case u = <-r.pending:
		}
		if u.state.Load() != 0 {
			continue // stale retry/hedge of a finished unit
		}
		if prev := u.lastWorker.Load().(string); prev != "" && prev != w.url {
			c.reassignments.Add(1)
		}
		u.lastWorker.Store(w.url)
		c.unitsDispatched.Add(1)
		attempt := int(u.attempts.Add(1))

		// Straggler hedging: once, per unit, arm a timer that re-enqueues
		// it if this attempt is still in flight after HedgeAfter — another
		// worker races it, first result wins.
		if c.cfg.HedgeAfter > 0 && u.hedged.CompareAndSwap(false, true) {
			hu := u
			time.AfterFunc(c.cfg.HedgeAfter, func() {
				if hu.state.Load() == 0 {
					c.hedges.Add(1)
					// Attrs on an ended span are dropped, so this is safe to
					// race against complete().
					hu.span.SetAttr("hedged", "true")
					c.cfg.Log.Info("hedging straggler unit", "unit", unitRange(hu))
					select {
					case r.pending <- hu:
					default:
					}
				}
			})
		}

		var asp *tracing.Span
		if r.tr != nil {
			asp = r.tr.StartSpan(u.span.ID(), "attempt", fmt.Sprintf("attempt %d", attempt))
			asp.SetAttr("worker", w.url)
			asp.SetAttr("attempt", fmt.Sprintf("%d", attempt))
		}
		flows, spans, err := c.runUnitOn(r, w, u, asp.ID())
		// Stitch the worker's span batch even when this attempt lost the
		// race: a duplicate execution is real work worth seeing.
		r.tr.Add(spans...)
		if err == nil {
			asp.SetAttr("outcome", "ok")
			asp.End()
			if c.complete(r, u, flows, nil) {
				w.unitsDone.Add(1)
			}
			continue
		}
		asp.SetAttr("outcome", "failed")
		asp.SetAttr("error", err.Error())
		asp.End()
		if r.ctx.Err() != nil {
			return
		}
		c.cfg.Log.Warn("unit attempt failed", "unit", unitRange(u), "attempt", attempt,
			"worker", w.url, "err", err)
		if attempt >= c.cfg.MaxAttempts {
			// Remote budget exhausted: the coordinator guarantees progress
			// by executing the unit itself.
			c.runUnitLocal(r, u)
			continue
		}
		c.retries.Add(1)
		ru := u
		time.AfterFunc(c.backoff(attempt), func() {
			if ru.state.Load() == 0 {
				select {
				case r.pending <- ru:
				default:
				}
			}
		})
	}
}

// runUnitLocal executes a unit in-process through dataset.RunPlan, exactly
// like a worker would, with a copy of the campaign's config (so with its
// cache, when it has one) — the degraded-mode and retry-exhaustion
// fallback. Its flow spans hang under the local attempt span; progress is
// left to complete, which reports it per unit.
func (c *Coordinator) runUnitLocal(r *run, u *unit) {
	if u.state.Load() != 0 {
		return
	}
	c.unitsLocal.Add(1)
	var asp *tracing.Span
	if r.tr != nil {
		asp = r.tr.StartSpan(u.span.ID(), "attempt", "attempt local")
		asp.SetAttr("worker", "local")
		asp.SetAttr("local", "true")
	}
	cfg := r.cfg
	cfg.Ctx, cfg.TraceParent, cfg.Progress = r.ctx, asp.ID(), nil
	flows, err := dataset.RunPlan(cfg, r.plan[u.start:u.end], false)
	switch {
	case r.ctx.Err() != nil:
		asp.SetAttr("outcome", "canceled")
		asp.End()
		return
	case err != nil:
		asp.SetAttr("outcome", "failed")
		asp.End()
		c.complete(r, u, nil, fmt.Errorf("dist: local unit %s: %w", unitRange(u), err))
		return
	}
	asp.SetAttr("outcome", "ok")
	asp.End()
	c.complete(r, u, flows, nil)
}

// unitRange renders a unit's flow range for log fields: "[start,end)".
func unitRange(u *unit) string { return fmt.Sprintf("[%d,%d)", u.start, u.end) }
