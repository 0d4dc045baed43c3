package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/export"
	"repro/internal/telemetry"
)

func TestRunQuickSubset(t *testing.T) {
	// A tiny campaign exercising the context-dependent experiments.
	err := run([]string{"-quick", "-flows", "1", "-duration", "20s",
		"-run", "table1,scalars,fig3,fig4,fig6,fig10,ablation"}, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunFigure1Only(t *testing.T) {
	// fig1/fig2 need no campaign context.
	err := run([]string{"-quick", "-duration", "30s", "-run", "fig1,fig2"}, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-nonsense"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunUnknownExperimentIsNoop(t *testing.T) {
	// Unknown names simply select nothing (documented behaviour): the run
	// must not fail.
	if err := run([]string{"-quick", "-run", "doesnotexist"}, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-quick", "-flows", "1", "-duration", "20s",
		"-run", "fig3,fig4", "-csv", dir}, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, name := range []string{"fig3_loss_rates.csv", "fig4_ack_vs_timeouts.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
}

func TestRunPanicSelfTestIsIsolated(t *testing.T) {
	// The hidden "panic" experiment deliberately panics; run must survive it
	// (no crash), report a nonzero-exit error, and still render the
	// independent fig1 section — with the panicking task's dependent skipped.
	err := run([]string{"-quick", "-duration", "20s", "-run", "fig1,panic"}, io.Discard)
	if err == nil {
		t.Fatal("run with a panicking task reported success")
	}
	if !strings.Contains(err.Error(), "failed") {
		t.Errorf("error %q does not summarize the failure", err)
	}
}

func TestRunTimeoutCancelsCleanly(t *testing.T) {
	// A deadline far too short for even the quick campaign: the run must
	// return an error promptly instead of finishing the full campaign or
	// hanging.
	start := time.Now()
	err := run([]string{"-quick", "-duration", "45s", "-timeout", "1ms",
		"-run", "table1,scalars"}, io.Discard)
	if err == nil {
		t.Fatal("run under a 1ms deadline reported success")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Minute {
		t.Errorf("cancellation took %v; the deadline did not cut the campaign short", elapsed)
	}
	// The partial-results summary must account for every task.
	if !strings.Contains(err.Error(), "completed") || !strings.Contains(err.Error(), "skipped") {
		t.Errorf("cancellation error %q lacks the completed/failed/skipped summary", err)
	}
}

func TestRunVersionFlag(t *testing.T) {
	if err := run([]string{"-version"}, io.Discard); err != nil {
		t.Fatalf("-version: %v", err)
	}
}

func TestRunWritesMetricsReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	err := run([]string{"-quick", "-flows", "1", "-duration", "20s",
		"-run", "table1", "-metrics", path}, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("metrics file missing: %v", err)
	}
	defer f.Close()
	rep, err := telemetry.ReadReport(f)
	if err != nil {
		t.Fatalf("metrics file unparseable: %v", err)
	}
	if rep.Tool != "hsrbench" || rep.Version == "" || rep.Seed != 1 {
		t.Errorf("report header = %+v", rep)
	}
	if rep.Campaign == nil {
		t.Fatal("report has no campaign section after a campaign run")
	}
	if rep.Campaign.Kernel.Events == 0 || rep.Campaign.TCP.Flows == 0 {
		t.Errorf("campaign counters empty: kernel=%+v tcp flows=%d",
			rep.Campaign.Kernel, rep.Campaign.TCP.Flows)
	}
	byName := map[string]telemetry.TaskReport{}
	for _, tr := range rep.Tasks {
		byName[tr.Name] = tr
	}
	for _, name := range []string{"campaigns", "table1"} {
		tr, ok := byName[name]
		if !ok || tr.Status != "ok" {
			t.Errorf("task %q report = %+v (present %v)", name, tr, ok)
		}
	}
	if rep.Resources.WallMS <= 0 || rep.Resources.Mallocs == 0 {
		t.Errorf("resource section empty: %+v", rep.Resources)
	}
}

func TestRunProfilesAndProgress(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	err := run([]string{"-quick", "-duration", "20s", "-run", "fig1",
		"-progress", "-cpuprofile", cpu, "-memprofile", mem}, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s missing: %v", p, err)
		} else if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestRunFaultSweep(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-quick", "-duration", "15s", "-run", "faults", "-csv", dir}, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fault_sweep.csv")); err != nil {
		t.Errorf("missing fault_sweep.csv: %v", err)
	}
}

// markdownTables parses every GitHub-flavored table in a markdown document.
func markdownTables(md string) []*export.Table {
	cells := func(line string) []string {
		line = strings.TrimSuffix(strings.TrimPrefix(line, "| "), " |")
		out := strings.Split(line, " | ")
		for i := range out {
			out[i] = strings.ReplaceAll(out[i], `\|`, "|")
		}
		return out
	}
	var tables []*export.Table
	lines := strings.Split(md, "\n")
	for i := 0; i+1 < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "|") || !strings.HasPrefix(lines[i+1], "| --- |") {
			continue
		}
		t := export.NewTable(cells(lines[i])...)
		for i += 2; i < len(lines) && strings.HasPrefix(lines[i], "|"); i++ {
			t.Rows = append(t.Rows, cells(lines[i]))
		}
		tables = append(tables, t)
	}
	return tables
}

// TestReportHasEveryTerminalTable checks -report against stdout of the same
// run: one heading per printed section header, in order, and every table
// the terminal printed, with the same cells.
func TestReportHasEveryTerminalTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	var out bytes.Buffer
	if err := run([]string{"-quick", "-flows", "1", "-duration", "20s", "-jobs", "4", "-run", "all", "-report", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	md, stdout := string(data), out.String()

	var headers, headings []string
	termTables := 0
	separator := regexp.MustCompile(`^-+(  -+)*\s*$`)
	lines := strings.Split(stdout, "\n")
	for i, line := range lines {
		if line == strings.Repeat("=", 90) && i+1 < len(lines) {
			headers = append(headers, lines[i+1])
		}
		if separator.MatchString(line) {
			termTables++
		}
	}
	for _, line := range strings.Split(md, "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			headings = append(headings, h)
		}
	}
	if len(headers) == 0 || strings.Join(headings, "\n") != strings.Join(headers, "\n") {
		t.Errorf("report headings %q, want the printed section headers %q", headings, headers)
	}
	tables := markdownTables(md)
	if len(tables) != termTables {
		t.Errorf("report has %d tables, stdout printed %d", len(tables), termTables)
	}
	for _, tab := range tables {
		if !strings.Contains(stdout, tab.Render()) {
			t.Errorf("report table %q is not one stdout printed", tab.Headers)
		}
	}
}
