package dataset

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/cellular"
	"repro/internal/faults"
	"repro/internal/railway"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// TableRow is one row of the paper's Table I.
type TableRow struct {
	Month    string
	Trips    int
	Phone    string
	Operator cellular.Operator
	Flows    int
	TraceGB  float64 // the paper's captured trace size, for reference
}

// TableI returns the paper's dataset structure: 255 flows over four
// carrier/month groups captured on the Beijing-Tianjin Intercity Railway.
func TableI() []TableRow {
	return []TableRow{
		{Month: "January 2015", Trips: 8, Phone: "Samsung Note 3", Operator: cellular.ChinaMobileLTE, Flows: 52, TraceGB: 7.73},
		{Month: "October 2015", Trips: 24, Phone: "Samsung Note 3", Operator: cellular.ChinaMobileLTE, Flows: 73, TraceGB: 18.9},
		{Month: "October 2015", Trips: 24, Phone: "Samsung Galaxy S4", Operator: cellular.ChinaUnicom3G, Flows: 65, TraceGB: 9.63},
		{Month: "October 2015", Trips: 24, Phone: "Samsung Galaxy S4", Operator: cellular.ChinaTelecom3G, Flows: 65, TraceGB: 4.21},
	}
}

// CampaignConfig controls a synthetic measurement campaign.
type CampaignConfig struct {
	// Seed is the campaign-level base seed; each flow derives its own.
	Seed int64
	// FlowDuration is the simulated length of each flow.
	FlowDuration time.Duration
	// FlowsPerRow overrides the Table I flow counts when positive (smaller
	// campaigns for tests), otherwise the table counts are used.
	FlowsPerRow int
	// Stationary switches the whole campaign to the stationary baseline
	// scenario (no movement: no handoffs, base loss only).
	Stationary bool
	// TCP is the endpoint configuration; zero value means tcp.DefaultConfig.
	TCP *tcp.Config
	// Parallelism bounds concurrent flow simulations; 0 means GOMAXPROCS.
	Parallelism int
	// Faults injects the same fault schedule into every flow of the campaign
	// (each flow draws its fault randomness from its own seed, so results
	// stay deterministic at any Parallelism). Nil or empty injects nothing.
	Faults *faults.Schedule
	// Ctx, when non-nil, cancels the campaign between flows: flows already
	// running finish, no new ones start, and RunCampaign returns the context
	// error. Nil means never cancelled.
	Ctx context.Context
	// Cache, when non-nil, serves flows whose (scenario, seed, version) key
	// it already holds without simulating them, and stores every flow it
	// does simulate. Cached results are bit-identical to simulated ones,
	// telemetry included, so campaign output and the Telemetry totals do not
	// depend on the cache's temperature (the cache's own hit/miss counters
	// record which flows skipped simulation).
	Cache *FlowCache
	// Telemetry, when non-nil, aggregates every flow's telemetry bundle,
	// simulated or served from the cache, into campaign totals. Flows are
	// merged in campaign order after the parallel phase completes, so the
	// totals (including float distributions) are bit-identical at any
	// Parallelism.
	Telemetry *telemetry.Campaign
	// Progress, when non-nil, is invoked after each flow finishes (success
	// or failure) with the number of flows completed so far and the campaign
	// total. It is called from worker goroutines and must be safe for
	// concurrent use.
	Progress func(done, total int)
	// Trace, when non-nil, records one span per flow (wall interval and
	// simulated-time interval) under TraceParent. Tracing is strictly
	// host-side observation: it never perturbs seeds, flow order or results.
	Trace       *tracing.Trace
	TraceParent string
}

// FlowResult pairs a flow's metrics with its Table I row.
type FlowResult struct {
	Row     TableRow
	Metrics *analysis.FlowMetrics
}

// Campaign is the outcome of a full synthetic measurement campaign.
type Campaign struct {
	Config  CampaignConfig
	Results []FlowResult
}

// ByOperator groups the campaign's metrics by carrier name, preserving the
// Table I order.
func (c *Campaign) ByOperator() (names []string, groups map[string][]*analysis.FlowMetrics) {
	groups = make(map[string][]*analysis.FlowMetrics)
	for _, r := range c.Results {
		name := r.Row.Operator.Name
		if _, ok := groups[name]; !ok {
			names = append(names, name)
		}
		groups[name] = append(groups[name], r.Metrics)
	}
	return names, groups
}

// Metrics returns all per-flow metrics in campaign order.
func (c *Campaign) Metrics() []*analysis.FlowMetrics {
	out := make([]*analysis.FlowMetrics, len(c.Results))
	for i, r := range c.Results {
		out[i] = r.Metrics
	}
	return out
}

// PlannedFlow is one flow of a campaign's deterministic plan: its position
// in campaign order, its Table I row, and the fully-built scenario. The
// plan is a pure function of the CampaignConfig — every node planning the
// same config derives the same flows with the same seeds, which is what
// lets a coordinator shard a campaign by flow index and workers rebuild
// their assigned scenarios independently. A plan built by hand (a sweep's
// or a flow job's) leaves Row zero.
type PlannedFlow struct {
	Index    int
	Row      TableRow
	Scenario Scenario
}

// PlanCampaign derives the campaign's flow plan without simulating
// anything: the Table I rows expanded to per-flow scenarios with their
// deterministic seeds, IDs and trip offsets, in campaign order.
func PlanCampaign(cfg CampaignConfig) ([]PlannedFlow, error) {
	if cfg.FlowDuration <= 0 {
		return nil, fmt.Errorf("dataset: campaign flow duration %v must be positive", cfg.FlowDuration)
	}
	tcpCfg := tcp.DefaultConfig()
	if cfg.TCP != nil {
		tcpCfg = *cfg.TCP
	}
	profile := railway.DefaultProfile
	scenarioName := "hsr"
	if cfg.Stationary {
		profile = railway.StationaryProfile
		scenarioName = "stationary"
	}
	trip, err := railway.NewTrip(railway.BeijingTianjin, profile)
	if err != nil {
		return nil, err
	}
	var plan []PlannedFlow
	flowIdx := 0
	for rowIdx, row := range TableI() {
		flows := row.Flows
		if cfg.FlowsPerRow > 0 {
			flows = cfg.FlowsPerRow
		}
		for f := 0; f < flows; f++ {
			seed := cfg.Seed*1_000_003 + int64(rowIdx)*10_007 + int64(f)
			sc := Scenario{
				ID:           fmt.Sprintf("%s-%02d-%03d", shortName(row.Operator.Name), rowIdx, f),
				Operator:     row.Operator,
				Trip:         trip,
				TripOffset:   flowOffset(trip, seed, cfg.FlowDuration),
				FlowDuration: cfg.FlowDuration,
				Seed:         seed,
				TCP:          tcpCfg,
				Scenario:     scenarioName,
				Faults:       cfg.Faults,
			}
			plan = append(plan, PlannedFlow{Index: flowIdx, Row: row, Scenario: sc})
			flowIdx++
		}
	}
	return plan, nil
}

// RunCampaign simulates every flow of the campaign (concurrently, each in
// its own deterministic simulation) and reduces the traces to metrics: the
// plan, run by RunPlan and merged by ReduceCampaign.
func RunCampaign(cfg CampaignConfig) (*Campaign, error) {
	plan, err := PlanCampaign(cfg)
	if err != nil {
		return nil, err
	}
	outs, err := RunPlan(cfg, plan, false)
	if err != nil {
		return nil, err
	}
	return ReduceCampaign(cfg, plan, outs)
}

// FlowOutcome is one planned flow's result: its plan index, its
// telemetry-complete result, whether it was served from the cache or from
// another caller's simulation of the same key, and the host wall time this
// run spent simulating it (0 when it did not simulate).
type FlowOutcome struct {
	Index  int
	Flow   CachedFlow
	Cached bool
	WallNS int64
	// Payload is the result's binary flow payload: set by a wire-form run,
	// and by any run with a cache, which stores those bytes.
	Payload []byte
}

// RunPlan runs a contiguous range of a campaign plan with telemetry attached
// to every flow and returns one outcome per flow, in plan order. It is the
// one loop that executes planned flows, for a local campaign, a worker's
// unit, a coordinator's fallback, an experiment sweep and a flow job
// alike: at most cfg.Parallelism flows run
// at once, each through cfg.Cache (nil simulates), and once cfg.Ctx is
// cancelled no further flow starts. cfg.Progress counts finished flows of
// the range. With cfg.Trace, each flow gets a "flow" span under
// cfg.TraceParent (index, operator, cached, virtual interval), holding a
// "cache" span when there is a cache and a "compute" span (under the cache
// span, if any) when the flow simulated. Every outcome is decoded; wire
// also asks for Payload bytes, which a run without a cache otherwise never
// encodes. The first failure in plan order is returned.
func RunPlan(cfg CampaignConfig, plan []PlannedFlow, wire bool) ([]FlowOutcome, error) {
	outs := make([]FlowOutcome, len(plan))
	errs := make([]error, len(plan))
	var done atomic.Int64
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i, j := range plan {
		sem <- struct{}{}
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			<-sem
			errs[i] = fmt.Errorf("flow %s: %w", j.Scenario.ID, cfg.Ctx.Err())
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			outs[i], errs[i] = runPlanned(cfg, j, wire)
			if cfg.Progress != nil {
				cfg.Progress(int(done.Add(1)), len(plan))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// runPlanned runs one planned flow through the cache under its spans.
func runPlanned(cfg CampaignConfig, j PlannedFlow, wire bool) (FlowOutcome, error) {
	id := j.Scenario.ID
	// under is the compute span's parent: the cache span if any, else the
	// flow span.
	var fsp, csp, under *tracing.Span
	if cfg.Trace != nil {
		fsp = cfg.Trace.StartSpan(cfg.TraceParent, "flow", id)
		fsp.SetAttr("index", strconv.Itoa(j.Index))
		fsp.SetAttr("operator", j.Scenario.Operator.Name)
		under = fsp
		if cfg.Cache != nil {
			csp = cfg.Trace.StartSpan(fsp.ID(), "cache", id)
			under = csp
		}
	}
	// Only a call that simulates sets wall: a hit or a deduplicated flow
	// keeps 0.
	var wall int64
	r, cached, err := cfg.Cache.getOrCompute(j.Scenario, wire, func() (CachedFlow, error) {
		ksp := cfg.Trace.StartSpan(under.ID(), "compute", id)
		start := time.Now()
		full, err := runFlowFull(j.Scenario)
		wall = time.Since(start).Nanoseconds()
		if err == nil {
			ksp.SetVirtual(0, full.Telemetry.Kernel.VirtualNS)
		}
		ksp.End()
		return full, err
	})
	csp.SetAttr("hit", strconv.FormatBool(cached))
	csp.End()
	if err != nil {
		fsp.SetAttr("error", err.Error())
		fsp.End()
		return FlowOutcome{}, fmt.Errorf("flow %s: %w", id, err)
	}
	if fsp != nil {
		fsp.SetAttr("cached", strconv.FormatBool(cached))
		fsp.SetVirtual(0, r.ent.Telemetry.Kernel.VirtualNS)
		fsp.End()
	}
	return FlowOutcome{Index: j.Index, Flow: r.ent, Cached: cached, WallNS: wall, Payload: r.payload}, nil
}

// ReduceCampaign builds the campaign of plan from one decoded outcome per
// flow in plan order, given as one or more consecutive chunks: the outcomes
// RunPlan returns, or a coordinator's units as they came back. With
// cfg.Telemetry it merges every flow's restored telemetry, hit or miss,
// strictly in plan order: float aggregates (Dist merges) are
// order-sensitive, and a fixed order makes the totals bit-identical at any
// Parallelism and worker count. Each flow adds its outcome's wall time, so
// only flows this campaign simulated add any.
func ReduceCampaign(cfg CampaignConfig, plan []PlannedFlow, chunks ...[]FlowOutcome) (*Campaign, error) {
	results := make([]FlowResult, len(plan))
	i := 0
	for _, chunk := range chunks {
		for _, o := range chunk {
			if i == len(plan) || o.Index != plan[i].Index {
				return nil, fmt.Errorf("dataset: outcome for flow %d at plan position %d of %d", o.Index, i, len(plan))
			}
			results[i] = FlowResult{Row: plan[i].Row, Metrics: o.Flow.Metrics}
			if cfg.Telemetry != nil {
				f := o.Flow.Telemetry.Restore()
				f.WallNS = o.WallNS
				cfg.Telemetry.AddFlow(f)
			}
			i++
		}
	}
	if i != len(plan) {
		return nil, fmt.Errorf("dataset: %d outcomes for a %d-flow plan", i, len(plan))
	}
	return &Campaign{Config: cfg, Results: results}, nil
}

// runFlowFull simulates one flow with a fresh telemetry bundle attached and
// returns a telemetry-complete cache entry: metrics, endpoint stats, and the
// flow's exact telemetry state in wire form. It is the computation behind
// every cache-or-simulate call, so every flow a campaign runs or reads back
// contributes its kernel/TCP/link counters to the campaign totals. The state
// holds no host wall time (whoever times the call holds that), so the entry
// is a pure function of the scenario and two cold caches write the same
// bytes.
func runFlowFull(sc Scenario) (CachedFlow, error) {
	tel := telemetry.NewFlow()
	sc.Telemetry = tel
	m, st, err := analyzeScenario(sc)
	if err != nil {
		return CachedFlow{}, err
	}
	state := tel.State()
	return CachedFlow{Metrics: m, Stats: st, Telemetry: &state}, nil
}

// flowOffset places a flow inside the trip's cruise window (the paper's
// flows were captured at steady ~300 km/h), deterministically from the
// flow seed. Stationary trips always start at zero.
func flowOffset(trip railway.Trip, seed int64, flowDuration time.Duration) time.Duration {
	if trip.Stationary() {
		return 0
	}
	start, end := trip.CruiseWindow()
	usable := end - start - flowDuration
	if usable <= 0 {
		return start
	}
	r := int64(uint64(seed*2654435761) % uint64(usable))
	return start + time.Duration(r)
}

// shortName compresses an operator name for flow IDs.
func shortName(name string) string {
	switch name {
	case cellular.ChinaMobileLTE.Name:
		return "cm"
	case cellular.ChinaUnicom3G.Name:
		return "cu"
	case cellular.ChinaTelecom3G.Name:
		return "ct"
	default:
		return "op"
	}
}
