package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/export"
	"repro/internal/telemetry"
)

// Task names of the shared-state producers every consumer depends on.
// CampaignsTaskName simulates the HSR + stationary Table I campaigns into
// the shared Context; ExemplarTaskName simulates the Figure 1 exemplar flow.
const (
	CampaignsTaskName = "campaigns"
	ExemplarTaskName  = "exemplar-flow"
)

// catalogSections is the canonical experiment catalog: every named
// experiment the CLI and the service can schedule, in render order, with the
// header its section prints under and the run that builds the section.
// needCtx marks sections consuming the shared campaigns Context, needFig1
// those consuming the exemplar flow.
var catalogSections = []struct {
	name     string
	desc     string
	header   string
	needCtx  bool
	needFig1 bool
	// optIn marks experiments "all" does not expand to: they are scheduled
	// only when named explicitly. The shared-bottleneck contention
	// experiments are opt-in so the default suite's output stays exactly
	// the paper reproduction.
	optIn bool
	run   func(c *Catalog) (export.Section, error)
}{
	{name: "table1", desc: "Table I: per-operator HSR vs stationary campaign summary", header: "TABLE I", needCtx: true,
		run: func(c *Catalog) (export.Section, error) { return Table1(c.ectx).Section(), nil }},
	{name: "fig1", desc: "Figure 1: exemplar HSR flow delivery timeline", header: "FIGURE 1", needFig1: true,
		run: func(c *Catalog) (export.Section, error) { return c.fig1.Section(), nil }},
	{name: "fig2", desc: "Figure 2: exemplar flow RTT evolution", header: "FIGURE 2", needFig1: true,
		run: func(c *Catalog) (export.Section, error) { return section(Figure2(c.fig1)) }},
	{name: "window", desc: "Window evolution of the exemplar flow (live Figs 7-9)", header: "WINDOW EVOLUTION (the live Figs 7-9)", needFig1: true,
		run: func(c *Catalog) (export.Section, error) { return section(WindowTrace(c.fig1)) }},
	{name: "fig3", desc: "Figure 3: packet-loss-rate comparison across campaigns", header: "FIGURE 3", needCtx: true,
		run: func(c *Catalog) (export.Section, error) { return Figure3(c.ectx).Section(), nil }},
	{name: "fig4", desc: "Figure 4: ACK-loss versus timeout correlation", header: "FIGURE 4", needCtx: true,
		run: func(c *Catalog) (export.Section, error) { return Figure4(c.ectx).Section(), nil }},
	{name: "fig6", desc: "Figure 6: ACK loss rates by operator and mobility", header: "FIGURE 6", needCtx: true,
		run: func(c *Catalog) (export.Section, error) { return Figure6(c.ectx).Section(), nil }},
	{name: "fig10", desc: "Figure 10: throughput-model fits against campaign data", header: "FIGURE 10", needCtx: true,
		run: func(c *Catalog) (export.Section, error) { return section(Figure10(c.ectx)) }},
	{name: "fig12", desc: "Figure 12: MPTCP subflow comparison", header: "FIGURE 12",
		run: func(c *Catalog) (export.Section, error) { return section(Figure12(c.cfg)) }},
	{name: "scalars", desc: "Headline scalar claims from the paper's measurement study", header: "HEADLINE CLAIMS", needCtx: true,
		run: func(c *Catalog) (export.Section, error) { return Scalars(c.ectx).Section(), nil }},
	{name: "delack", desc: "Delayed-ACK parameter sweep (Section V-A)", header: "DELAYED-ACK SWEEP (Section V-A)",
		run: func(c *Catalog) (export.Section, error) { return section(DelayedAck(c.cfg)) }},
	{name: "ablation", desc: "Throughput-model term ablation", header: "MODEL ABLATION", needCtx: true,
		run: func(c *Catalog) (export.Section, error) { return section(ModelAblation(c.ectx)) }},
	{name: "backupq", desc: "MPTCP backup-mode handoff mitigation (Section V-B)", header: "MPTCP BACKUP MODE (Section V-B)",
		run: func(c *Catalog) (export.Section, error) { return section(BackupQ(c.cfg)) }},
	{name: "eifel", desc: "Eifel-style spurious-RTO detection and response", header: "EIFEL-STYLE SPURIOUS-RTO RESPONSE",
		run: func(c *Catalog) (export.Section, error) { return section(Eifel(c.cfg)) }},
	{name: "sensitivity", desc: "Channel ablation: handoff-duration sensitivity sweep", header: "CHANNEL ABLATION — HANDOFF DURATION SWEEP",
		run: func(c *Catalog) (export.Section, error) { return section(ChannelSensitivity(c.cfg)) }},
	{name: "variants", desc: "Reno vs NewReno loss-recovery comparison", header: "VARIANT COMPARISON — RENO VS NEWRENO",
		run: func(c *Catalog) (export.Section, error) { return section(Variants(c.cfg)) }},
	{name: "speed", desc: "Train-speed sweep from 0 to 300 km/h", header: "SPEED SWEEP — 0 TO 300 KM/H",
		run: func(c *Catalog) (export.Section, error) { return section(SpeedSweep(c.cfg)) }},
	{name: "validation", desc: "Pipeline validation on a static Bernoulli channel", header: "PIPELINE VALIDATION — STATIC BERNOULLI CHANNEL",
		run: func(c *Catalog) (export.Section, error) { return section(ModelValidation(c.cfg)) }},
	{name: "faults", desc: "Fault-injection severity sweep (storms, blackouts, bursts)", header: "FAULT-INJECTION SEVERITY SWEEP",
		run: func(c *Catalog) (export.Section, error) { return section(FaultSweep(c.cfg)) }},
	{name: "fairness", desc: "Intra-variant fairness: same-CC flows sharing one bottleneck cell", header: "SHARED-BOTTLENECK FAIRNESS", optIn: true,
		run: func(c *Catalog) (export.Section, error) {
			r, err := Fairness(c.cfg)
			if err != nil {
				return export.Section{}, err
			}
			for i := range r.Groups {
				c.addCCGroups(r.Groups[i].telemetryGroup("fairness"))
			}
			return r.Section(), nil
		}},
	{name: "ccmix", desc: "Mixed congestion control: one flow per variant on a shared cell", header: "MIXED CONGESTION CONTROL ON ONE CELL", optIn: true,
		run: func(c *Catalog) (export.Section, error) {
			r, err := CCMix(c.cfg)
			if err != nil {
				return export.Section{}, err
			}
			for i := range r.Groups {
				c.addCCGroups(r.Groups[i].telemetryGroup("ccmix"))
			}
			return r.Section(), nil
		}},
}

// section adapts an experiment's (result, error) return to a run.
func section[R interface{ Section() export.Section }](r R, err error) (export.Section, error) {
	if err != nil {
		return export.Section{}, err
	}
	return r.Section(), nil
}

// CatalogNames returns every experiment name in canonical render order.
func CatalogNames() []string {
	names := make([]string, len(catalogSections))
	for i, s := range catalogSections {
		names[i] = s.name
	}
	return names
}

// DefaultCatalogNames returns the experiments "all" expands to — the paper
// reproduction suite, excluding the opt-in contention experiments — in
// canonical render order.
func DefaultCatalogNames() []string {
	names := make([]string, 0, len(catalogSections))
	for _, s := range catalogSections {
		if !s.optIn {
			names = append(names, s.name)
		}
	}
	return names
}

// CatalogEntry is one experiment's listing: its schedulable name and a
// one-line description.
type CatalogEntry struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// OptIn marks experiments excluded from the "all" expansion.
	OptIn bool `json:"opt_in,omitempty"`
}

// CatalogList returns every experiment with its description, in canonical
// render order (the -list flag and the /v1/experiments endpoint).
func CatalogList() []CatalogEntry {
	out := make([]CatalogEntry, len(catalogSections))
	for i, s := range catalogSections {
		out[i] = CatalogEntry{Name: s.name, Description: s.desc, OptIn: s.optIn}
	}
	return out
}

// IsCatalogName reports whether name is a known catalog experiment.
func IsCatalogName(name string) bool {
	for _, s := range catalogSections {
		if s.name == name {
			return true
		}
	}
	return false
}

// CatalogOptions customizes a catalog build.
type CatalogOptions struct {
	// WriteCSV, when non-nil, additionally receives each section's CSV
	// series (name, table) from inside the experiment's task; an error
	// fails that task.
	WriteCSV func(name string, t *export.Table) error
	// ForceCampaigns schedules the shared campaigns task even when no
	// selected experiment consumes it (used by campaign-only jobs).
	ForceCampaigns bool
	// Logf, when non-nil, receives human-oriented progress notes (campaign
	// start/finish). It may be called from worker goroutines.
	Logf func(format string, args ...any)
}

// Catalog is a buildable schedule over the named experiments: the dependency
// tasks for shared state plus one task per requested experiment. Run the
// Tasks with RunDAGProgress; once the run returned, Sections returns every
// completed experiment's section.
type Catalog struct {
	// Tasks is the dependency-aware schedule, in canonical render order.
	Tasks []Task

	cfg  Config
	ectx *Context
	fig1 *Figure1Result
	// sections holds each completed experiment's section by catalog index;
	// every task writes only its own slot.
	sections []*export.Section

	ccMu sync.Mutex
	cc   []telemetry.CCGroup
}

// addCCGroups records shared-bottleneck group results from an experiment
// task (tasks may run concurrently under RunDAG).
func (c *Catalog) addCCGroups(groups ...telemetry.CCGroup) {
	c.ccMu.Lock()
	c.cc = append(c.cc, groups...)
	c.ccMu.Unlock()
}

// CCReport returns the congestion-control section collected from the
// fairness/ccmix tasks, sorted by (experiment, label) so the report is
// deterministic at any parallelism; nil when neither experiment ran.
func (c *Catalog) CCReport() *telemetry.CCReport {
	c.ccMu.Lock()
	defer c.ccMu.Unlock()
	if len(c.cc) == 0 {
		return nil
	}
	groups := make([]telemetry.CCGroup, len(c.cc))
	copy(groups, c.cc)
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].Experiment != groups[j].Experiment {
			return groups[i].Experiment < groups[j].Experiment
		}
		return groups[i].Label < groups[j].Label
	})
	return &telemetry.CCReport{Groups: groups}
}

// Sections returns the section of every experiment task that completed, in
// canonical render order. Call it only after the Tasks' run returned.
func (c *Catalog) Sections() []export.Section {
	var out []export.Section
	for _, s := range c.sections {
		if s != nil {
			out = append(out, *s)
		}
	}
	return out
}

// NewCatalog builds the experiment schedule for the requested names under
// cfg. Unknown names are an error (callers that want to ignore them filter
// with IsCatalogName first); duplicate names collapse to one task. The
// returned tasks run under ctx: once it is done, unstarted tasks are
// skipped, exactly like RunDAGContext.
func NewCatalog(ctx context.Context, cfg Config, names []string, opt CatalogOptions) (*Catalog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(names))
	for _, name := range names {
		if !IsCatalogName(name) {
			return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
				name, strings.Join(CatalogNames(), ", "))
		}
		want[name] = true
	}
	needCtx := opt.ForceCampaigns
	needFig1 := false
	for _, s := range catalogSections {
		if want[s.name] && s.needCtx {
			needCtx = true
		}
		if want[s.name] && s.needFig1 {
			needFig1 = true
		}
	}

	cat := &Catalog{cfg: cfg, sections: make([]*export.Section, len(catalogSections))}
	// addSpanned registers a task wrapped in a task span (a no-op when
	// cfg.Trace is nil); the task body receives its own span ID so shared-
	// state producers can parent their campaign spans beneath the task.
	addSpanned := func(name string, deps []string, run func(parent string) (string, error)) {
		cat.Tasks = append(cat.Tasks, Task{Name: name, Deps: deps, Run: func() (string, error) {
			sp := cfg.Trace.StartSpan(cfg.TraceParent, "task", name)
			out, err := run(sp.ID())
			if err != nil {
				sp.SetAttr("error", err.Error())
			}
			sp.End()
			return out, err
		}})
	}
	add := func(name string, deps []string, run func() (string, error)) {
		addSpanned(name, deps, func(string) (string, error) { return run() })
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var ctxDep, fig1Dep []string
	if needCtx {
		ctxDep = []string{CampaignsTaskName}
		addSpanned(CampaignsTaskName, nil, func(parent string) (string, error) {
			logf("running campaigns (seed=%d, duration=%v, flowsPerRow=%d)...",
				cfg.Seed, cfg.FlowDuration, cfg.FlowsPerRow)
			start := time.Now()
			ccfg := cfg
			if ccfg.Trace != nil {
				ccfg.TraceParent = parent
			}
			var err error
			cat.ectx, err = NewContextWith(ctx, ccfg)
			if err != nil {
				return "", err
			}
			logf("campaigns done in %v", time.Since(start).Round(time.Millisecond))
			return "", nil
		})
	}
	if needFig1 {
		fig1Dep = []string{ExemplarTaskName}
		add(ExemplarTaskName, nil, func() (string, error) {
			var err error
			cat.fig1, err = Figure1(cfg)
			return "", err
		})
	}

	for i, e := range catalogSections {
		if !want[e.name] {
			continue
		}
		var deps []string
		switch {
		case e.needCtx:
			deps = ctxDep
		case e.needFig1:
			deps = fig1Dep
		}
		add(e.name, deps, func() (string, error) {
			sec, err := e.run(cat)
			if err != nil {
				return "", err
			}
			sec.Heading = e.header
			if sec.CSV != nil && opt.WriteCSV != nil {
				if err := opt.WriteCSV(sec.CSVName, sec.CSV); err != nil {
					return "", err
				}
			}
			cat.sections[i] = &sec
			return export.Text(sec), nil
		})
	}
	return cat, nil
}

// WriteCSV writes one section's CSV series into dir as <name>.csv.
func WriteCSV(dir, name string, t *export.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: create csv dir: %w", err)
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiments: create %s: %w", path, err)
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
