// Command hsrbench regenerates every table and figure of the paper from the
// synthetic measurement campaign and prints them as terminal tables and
// text plots.
//
// Usage:
//
//	hsrbench [-quick] [-seed N] [-duration 120s] [-flows N] [-jobs N]
//	         [-timeout D] [-run name,...] [-list] [-progress]
//	         [-metrics out.json] [-cache DIR] [-cache-max-bytes N]
//	         [-bench-json out.json] [-trace-out trace.json]
//	         [-cpuprofile f] [-memprofile f] [-version]
//
// Experiment names: table1, fig1, fig2, fig3, fig4, fig6, fig10, fig12,
// window, scalars, delack, ablation, backupq, eifel, sensitivity, variants,
// speed, validation, faults, all (default), plus the opt-in shared-
// bottleneck experiments fairness and ccmix ("all" does not include them;
// request them by name). -list prints the catalog with descriptions.
//
// Experiments run on a dependency-aware parallel scheduler: -jobs N runs up
// to N independent experiments concurrently (default 1; 0 means GOMAXPROCS).
// Output ordering is deterministic — the rendered sections are printed in
// the canonical order above regardless of parallelism, so -jobs N produces
// output identical to a sequential run.
//
// Failures are isolated: an experiment that errors (or panics) only skips
// its dependents; every other section still renders, the failures are
// listed on stderr, and the exit code is nonzero. -timeout D cancels a
// running campaign cleanly after D of wall time, printing whatever
// completed. The hidden "panic" experiment deliberately panics (with a
// dependent that must be skipped) to exercise that isolation end to end.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hsrbench:", err)
		os.Exit(1)
	}
}

// run executes one hsrbench invocation, printing the rendered sections to
// stdout and progress, failures and file notes to stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hsrbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced campaign (4 flows per Table I row, 45s flows)")
	seed := fs.Int64("seed", 1, "base seed for all campaigns")
	duration := fs.Duration("duration", 0, "override flow duration")
	flows := fs.Int("flows", 0, "override flows per Table I row (0 = paper counts)")
	jobs := fs.Int("jobs", 1, "concurrent experiments (0 = GOMAXPROCS); output order is deterministic")
	timeout := fs.Duration("timeout", 0, "cancel the campaign after this much wall time (0 = no deadline)")
	runList := fs.String("run", "all", "comma-separated experiments to run (\"all\" = the paper suite; opt-in experiments like fairness/ccmix must be named)")
	list := fs.Bool("list", false, "list every catalog experiment with its description and exit")
	csvDir := fs.String("csv", "", "also write figure series as CSV files into this directory")
	reportPath := fs.String("report", "", "also write the selected experiments as a markdown report to this file, from the same results stdout prints")
	progress := fs.Bool("progress", false, "print flow and experiment completion progress to stderr")
	cacheDir := fs.String("cache", "", "flow result cache directory: serve (scenario, seed, version)-keyed flow metrics from disk instead of re-simulating, and store every simulated flow")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "bound the cache directory's entry bytes, evicting oldest entries first (0 = unbounded)")
	metricsPath := fs.String("metrics", "", "write a JSON telemetry report (kernel/TCP/link/fault counters, per-task resources) to this file")
	benchJSON := fs.String("bench-json", "", "run the performance snapshot (cold/warm quick campaign, single-flow wall and allocations, kernel event rate), write it as JSON to this file, and exit without running experiments")
	traceOut := fs.String("trace-out", "", "write the run's span trace (task, campaign and flow spans with wall and virtual timelines) to this file in the Perfetto/Chrome trace-event format")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file (taken at exit, after a GC)")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Line("hsrbench"))
		return nil
	}
	if *list {
		w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		for _, e := range experiments.CatalogList() {
			note := ""
			if e.OptIn {
				note = " (opt-in: not part of -run all)"
			}
			fmt.Fprintf(w, "%s\t%s%s\n", e.Name, e.Description, note)
		}
		return w.Flush()
	}
	if *benchJSON != "" {
		snap, err := experiments.RunBenchSnapshot(experiments.BenchOptions{Seed: *seed})
		if err != nil {
			return err
		}
		f, err := os.Create(*benchJSON)
		if err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
		werr := snap.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("bench-json: %w", werr)
		}
		fmt.Fprintf(os.Stderr, "hsrbench: campaign %d flows cold %.0fms warm %.0fms; flow %.2fms, %.0f allocs, %.2fM events/s; wrote %s\n",
			snap.CampaignFlows, snap.ColdCampaignWallMS, snap.WarmCampaignWallMS,
			snap.SingleFlowWallMS, snap.AllocsPerFlow, snap.KernelEventsPerSec/1e6, *benchJSON)
		return nil
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hsrbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hsrbench: memprofile:", err)
			}
		}()
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	if *duration > 0 {
		cfg.FlowDuration = *duration
	}
	if *flows > 0 {
		cfg.FlowsPerRow = *flows
	}

	var camp *telemetry.Campaign
	if *metricsPath != "" {
		camp = telemetry.NewCampaign()
		cfg.Telemetry = camp
	}
	var cache *dataset.FlowCache
	if *cacheDir != "" {
		var err error
		cache, err = dataset.OpenFlowCache(*cacheDir)
		if err != nil {
			return err
		}
		if err := cache.SetMaxBytes(*cacheMaxBytes); err != nil {
			return err
		}
		cfg.Cache = cache
	}
	// Tracing is host-side instrumentation only: it never perturbs seeds,
	// flow order or results, so output stays byte-identical with it on.
	var traceRoot *tracing.Span
	if *traceOut != "" {
		tr := tracing.New(fmt.Sprintf("hsrbench-%d", cfg.Seed))
		traceRoot = tr.StartSpan("", "run", "hsrbench")
		cfg.Trace = tr
		cfg.TraceParent = traceRoot.ID()
	}
	if *progress {
		// Flow-level progress from the campaign workers: one line every ten
		// flows (and the last), mutex-guarded because workers run in parallel.
		var mu sync.Mutex
		cfg.Progress = func(done, total int) {
			if done%10 != 0 && done != total {
				return
			}
			mu.Lock()
			fmt.Fprintf(os.Stderr, "hsrbench: flows %d/%d\n", done, total)
			mu.Unlock()
		}
	}
	wallStart := time.Now()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Resolve the -run list against the canonical catalog. Unknown names
	// simply select nothing (documented behaviour); "all" selects the paper
	// suite (opt-in experiments still need to be named); the hidden "panic"
	// self-test is handled below.
	want := map[string]bool{}
	for _, name := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(name)] = true
	}
	if want["all"] {
		for _, name := range experiments.DefaultCatalogNames() {
			want[name] = true
		}
	}
	var names []string
	for _, name := range experiments.CatalogNames() {
		if want[name] {
			names = append(names, name)
		}
	}

	opt := experiments.CatalogOptions{
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if *csvDir != "" {
		opt.WriteCSV = func(name string, t *export.Table) error {
			if err := experiments.WriteCSV(*csvDir, name, t); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s/%s.csv\n", *csvDir, name)
			return nil
		}
	}
	cat, err := experiments.NewCatalog(ctx, cfg, names, opt)
	if err != nil {
		return err
	}
	tasks := cat.Tasks
	if want["panic"] {
		// Hidden self-test (never part of "all"): a task that panics plus a
		// dependent that must be skipped, proving a crashing experiment
		// cannot take the campaign down.
		tasks = append(tasks, experiments.Task{Name: "panic", Run: func() (string, error) {
			panic("deliberate self-test panic")
		}})
		tasks = append(tasks, experiments.Task{Name: "panic-dependent", Deps: []string{"panic"},
			Run: func() (string, error) {
				return "must never render\n", nil
			}})
	}

	var onDone func(r experiments.TaskResult, completed, total int)
	if *progress {
		// Task-level progress runs on the scheduler's coordinator goroutine,
		// so no locking is needed against other onDone calls.
		onDone = func(r experiments.TaskResult, completed, total int) {
			status := "ok"
			switch {
			case r.Skipped:
				status = "skipped"
			case r.Err != nil:
				status = "failed"
			}
			fmt.Fprintf(os.Stderr, "hsrbench: [%d/%d] %s %s (%v)\n",
				completed, total, r.Name, status, r.Wall.Round(time.Millisecond))
		}
	}
	results, err := experiments.RunDAGProgress(ctx, tasks, *jobs, onDone)
	if err != nil {
		return err
	}
	if *traceOut != "" {
		traceRoot.End()
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		werr := tracing.WriteTrace(f, cfg.Trace.Spans())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("trace-out: %w", werr)
		}
		fmt.Fprintf(os.Stderr, "hsrbench: wrote %d spans to %s\n", cfg.Trace.Len(), *traceOut)
	}
	// Partial results first: everything that completed renders in canonical
	// order even when other branches failed or the deadline hit.
	for _, r := range results {
		if r.Output != "" {
			fmt.Fprint(stdout, r.Output)
		}
	}
	var failed, skipped int
	for _, r := range results {
		switch {
		case r.Skipped:
			skipped++
			fmt.Fprintf(os.Stderr, "hsrbench: skipped %s: %v\n", r.Name, r.Err)
		case r.Err != nil:
			failed++
			var pe *experiments.PanicError
			if errors.As(r.Err, &pe) {
				fmt.Fprintf(os.Stderr, "hsrbench: task %s panicked: %v\n%s", r.Name, pe.Value, pe.Stack)
			} else {
				fmt.Fprintf(os.Stderr, "hsrbench: task %s failed: %v\n", r.Name, r.Err)
			}
		}
	}
	if *reportPath != "" {
		// The report prints the sections stdout just printed, as markdown.
		md := fmt.Sprintf("# Reproduction report\n\nGenerated by `hsrbench -report` — seed %d, %v flows, %d per Table I row (0 = paper counts).\n\n",
			cfg.Seed, cfg.FlowDuration, cfg.FlowsPerRow)
		for _, sec := range cat.Sections() {
			md += export.Markdown(sec)
		}
		if err := os.WriteFile(*reportPath, []byte(md), 0o644); err != nil {
			return fmt.Errorf("report: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *reportPath)
	}
	if cache != nil {
		cc := cache.Counters()
		fmt.Fprintf(os.Stderr, "hsrbench: cache: %d hits, %d misses, %d dedups, %d errors, %d evictions, %d B read, %d B written\n",
			cc.Hits, cc.Misses, cc.Dedups, cc.Errors, cc.Evictions, cc.BytesRead, cc.BytesWritten)
	}
	if *metricsPath != "" {
		var cc *telemetry.Cache
		if cache != nil {
			c := cache.Counters()
			cc = &c
		}
		rep := experiments.MetricsReport("hsrbench", cfg.Seed, camp, cc, results, wallStart)
		rep.CC = cat.CCReport()
		f, err := os.Create(*metricsPath)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		werr := rep.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("metrics: %w", werr)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *metricsPath)
	}
	if failed > 0 || skipped > 0 {
		completed := len(results) - failed - skipped
		summary := fmt.Sprintf("%d task(s) completed, %d failed, %d skipped; partial results above",
			completed, failed, skipped)
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("campaign cancelled (%v): %s", err, summary)
		}
		return errors.New(summary)
	}
	return nil
}
