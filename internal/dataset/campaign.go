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
// their assigned scenarios independently.
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
// its own deterministic simulation) and reduces the traces to metrics.
func RunCampaign(cfg CampaignConfig) (*Campaign, error) {
	jobs, err := PlanCampaign(cfg)
	if err != nil {
		return nil, err
	}

	results := make([]FlowResult, len(jobs))
	states := make([]*telemetry.FlowState, len(jobs))
	errs := make([]error, len(jobs))
	var done atomic.Int64
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for _, j := range jobs {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			errs[j.Index] = fmt.Errorf("flow %s: %w", j.Scenario.ID, cfg.Ctx.Err())
			continue
		}
		j := j
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			var sp *tracing.Span
			if cfg.Trace != nil {
				sp = cfg.Trace.StartSpan(cfg.TraceParent, "flow", j.Scenario.ID)
				sp.SetAttr("index", strconv.Itoa(j.Index))
				sp.SetAttr("operator", j.Row.Operator.Name)
			}
			ent, hit, err := cfg.Cache.GetOrSimulate(j.Scenario)
			if err != nil {
				errs[j.Index] = fmt.Errorf("flow %s: %w", j.Scenario.ID, err)
				sp.SetAttr("error", err.Error())
			} else {
				results[j.Index] = FlowResult{Row: j.Row, Metrics: ent.Metrics}
				states[j.Index] = ent.Telemetry
				sp.SetVirtual(0, ent.Telemetry.Kernel.VirtualNS)
			}
			if sp != nil {
				sp.SetAttr("cached", strconv.FormatBool(hit))
				sp.End()
			}
			if cfg.Progress != nil {
				cfg.Progress(int(done.Add(1)), len(jobs))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Merge per-flow telemetry strictly in campaign order, after the parallel
	// phase: float aggregates (Dist merges) are order-sensitive, and a fixed
	// order makes the totals bit-identical at any Parallelism. Every flow
	// merges its restored state, hit or miss, exactly as a distributed
	// campaign merges the states its workers ship.
	if cfg.Telemetry != nil {
		for _, st := range states {
			cfg.Telemetry.AddFlow(st.Restore())
		}
	}
	return &Campaign{Config: cfg, Results: results}, nil
}

// RunFlowFull simulates one flow with a fresh telemetry bundle attached and
// returns a telemetry-complete cache entry: metrics, endpoint stats, and the
// flow's exact telemetry state in wire form. It is the computation behind
// every cache-or-simulate call (GetOrSimulate, and GetOrComputeFull for
// distributed work units), so every flow a campaign runs or reads back
// contributes its kernel/TCP/link counters to the campaign totals.
func RunFlowFull(sc Scenario) (CachedFlow, error) {
	tel := telemetry.NewFlow()
	sc.Telemetry = tel
	m, st, err := RunFlowMetrics(sc)
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
