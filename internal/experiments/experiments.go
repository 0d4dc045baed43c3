// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the extension studies DESIGN.md calls out. Each
// experiment is a function from a Config (or a shared Context holding the
// synthetic measurement campaigns) to a typed result whose Section method
// returns its lines, tables, plots and CSV series (export.Section); the
// catalog runs them, cmd/hsrbench prints the sections to the terminal and
// to -report, and bench_test.go reports the headline numbers as benchmark
// metrics. The paper's reference values live in one table (paper.go).
//
// Per-experiment index (see DESIGN.md for the full mapping):
//
//	Table1        — the dataset (paper Table I)
//	Figure1       — per-packet delivery latency scatter with losses/timeouts
//	Figure2       — the retransmission process inside one recovery phase
//	Figure3       — CDFs of recovery-phase loss (q) vs lifetime data loss
//	Figure4       — ACK loss rate vs timeout probability correlation
//	Figure6       — CDFs of ACK loss, HSR vs stationary
//	Figure10      — model deviation D: Padhye vs the enhanced model
//	Figure12      — MPTCP (two subflows) vs TCP throughput by carrier
//	Scalars       — headline numbers (recovery durations, spurious share, loss rates)
//	DelayedAck    — Section V-A: the delayed-ACK window sweep
//	ModelAblation — Section IV ablations (P_a source, consistent variant, sensitivity)
//	BackupQ       — Section V-B: MPTCP backup-mode double retransmission
package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// Config scales the experiments. The zero value is not valid; use Default
// or Quick.
type Config struct {
	// Seed is the base seed for every campaign and flow.
	Seed int64
	// FlowDuration is the simulated duration of duration-bounded flows.
	FlowDuration time.Duration
	// FlowsPerRow overrides Table I's flow counts when positive.
	FlowsPerRow int
	// SizedSegments is the transfer size (in MSS segments) of the fixed-size
	// flows used by the MPTCP comparison.
	SizedSegments int64
	// PairsPerOperator is the number of single-vs-duplex pairs per carrier
	// in the MPTCP comparison.
	PairsPerOperator int
	// Parallelism bounds concurrent flow simulations (0 = GOMAXPROCS).
	Parallelism int
	// Cache, when non-nil, is the flow result cache every campaign and
	// metrics-only sweep consults before simulating a flow and populates
	// afterwards (hsrbench -cache). Results are bit-identical either way;
	// a warm cache only changes the wall clock.
	Cache *dataset.FlowCache
	// Telemetry, when non-nil, aggregates telemetry from both shared
	// campaigns (HSR and stationary) into one collector; totals are
	// deterministic for a given seed at any Parallelism.
	Telemetry *telemetry.Campaign
	// Progress, when non-nil, is forwarded to both campaigns; it is invoked
	// per finished flow (per campaign) from worker goroutines and must be
	// safe for concurrent use.
	Progress func(done, total int)
	// Runner, when non-nil, replaces dataset.RunCampaign for the two shared
	// campaigns (HSR and stationary). This is how distributed execution plugs
	// in: a coordinator installs its fan-out runner here and everything
	// downstream of the campaigns — tables, figures, telemetry totals — is
	// oblivious to where the flows actually simulated. A Runner must honor
	// the full CampaignConfig contract, in particular merging telemetry in
	// campaign flow order so its output is byte-identical to the local path.
	Runner CampaignRunner
	// Trace, when non-nil, records the run's span tree (internal/tracing):
	// one task span per catalog task, one campaign span per shared campaign,
	// and whatever the campaign runner records beneath them (per-flow spans
	// locally; unit/attempt/worker spans through a coordinator). TraceParent
	// is the span the tree hangs from. Tracing never perturbs results.
	Trace       *tracing.Trace
	TraceParent string
}

// CampaignRunner executes one synthetic measurement campaign. The default is
// dataset.RunCampaign; internal/dist provides a coordinator-backed one.
type CampaignRunner func(dataset.CampaignConfig) (*dataset.Campaign, error)

// Default is the full-scale configuration: the complete 255-flow Table I
// campaign with 120-second flows. It takes a few CPU-minutes.
func Default() Config {
	return Config{
		Seed:             1,
		FlowDuration:     120 * time.Second,
		SizedSegments:    6000,
		PairsPerOperator: 10,
	}
}

// Quick is a reduced configuration for tests and smoke runs: 4 flows per
// Table I row, 45-second flows.
func Quick() Config {
	return Config{
		Seed:             1,
		FlowDuration:     45 * time.Second,
		FlowsPerRow:      4,
		SizedSegments:    2000,
		PairsPerOperator: 3,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FlowDuration <= 0 {
		return fmt.Errorf("experiments: FlowDuration %v must be positive", c.FlowDuration)
	}
	if c.SizedSegments < 2 {
		return fmt.Errorf("experiments: SizedSegments %d must be >= 2", c.SizedSegments)
	}
	if c.PairsPerOperator < 1 {
		return fmt.Errorf("experiments: PairsPerOperator %d must be >= 1", c.PairsPerOperator)
	}
	return nil
}

// Context holds the shared synthetic campaigns several experiments consume,
// so a full run simulates the dataset once.
type Context struct {
	Cfg        Config
	HSR        *dataset.Campaign
	Stationary *dataset.Campaign

	fig1Once sync.Once
	fig1     *Figure1Result
	fig1Err  error
}

// Figure1 returns the Context's exemplar cruise-speed flow (the paper's
// Fig 1 trace), simulating it at most once and caching the result so
// Figure 2, the window trace, and the benchmarks can reuse the flow trace
// instead of re-simulating it. Safe for concurrent use.
func (c *Context) Figure1() (*Figure1Result, error) {
	c.fig1Once.Do(func() {
		c.fig1, c.fig1Err = Figure1(c.Cfg)
	})
	return c.fig1, c.fig1Err
}

// NewContext runs the HSR and stationary campaigns for the configuration.
func NewContext(cfg Config) (*Context, error) {
	return NewContextWith(context.Background(), cfg)
}

// NewContextWith is NewContext with cancellation: once ctx is done the
// campaigns stop launching flows and the context error is returned, so a
// deadline on the whole run (hsrbench -timeout) tears the multi-minute
// campaign phase down cleanly.
func NewContextWith(ctx context.Context, cfg Config) (*Context, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	run := cfg.Runner
	if run == nil {
		run = dataset.RunCampaign
	}
	// runTraced wraps one shared campaign in a campaign span; the campaign
	// config inherits the trace so the runner's flow (or unit dispatch)
	// spans parent beneath it.
	runTraced := func(name string, dcfg dataset.CampaignConfig) (*dataset.Campaign, error) {
		sp := cfg.Trace.StartSpan(cfg.TraceParent, "campaign", name)
		if cfg.Trace != nil {
			dcfg.Trace = cfg.Trace
			dcfg.TraceParent = sp.ID()
		}
		camp, err := run(dcfg)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
		return camp, err
	}
	hsr, err := runTraced("campaign:hsr", dataset.CampaignConfig{
		Seed: cfg.Seed, FlowDuration: cfg.FlowDuration,
		FlowsPerRow: cfg.FlowsPerRow, Parallelism: cfg.Parallelism,
		Ctx: ctx, Telemetry: cfg.Telemetry, Progress: cfg.Progress,
		Cache: cfg.Cache,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: hsr campaign: %w", err)
	}
	stat, err := runTraced("campaign:stationary", dataset.CampaignConfig{
		Seed: cfg.Seed + 5000, FlowDuration: cfg.FlowDuration,
		FlowsPerRow: cfg.FlowsPerRow, Parallelism: cfg.Parallelism,
		Stationary: true, Ctx: ctx, Telemetry: cfg.Telemetry, Progress: cfg.Progress,
		Cache: cfg.Cache,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: stationary campaign: %w", err)
	}
	return &Context{Cfg: cfg, HSR: hsr, Stationary: stat}, nil
}

// defaultTCP returns the endpoint configuration experiments use.
func defaultTCP() tcp.Config { return tcp.DefaultConfig() }

// analyzeFlow reduces one scenario to metrics through the shared result
// cache (if any) and the streaming analyzer. Every metrics-only sweep
// funnels through here so -cache applies uniformly.
func (c Config) analyzeFlow(sc dataset.Scenario) (*analysis.FlowMetrics, error) {
	return dataset.AnalyzeFlowOpts(dataset.RunOptions{Cache: c.Cache}, sc)
}
