package experiments

import (
	"context"
	"repro/internal/export"
	"strings"
	"testing"
	"time"
)

func TestCatalogNamesCanonical(t *testing.T) {
	names := CatalogNames()
	if len(names) == 0 {
		t.Fatal("empty catalog")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate catalog name %q", n)
		}
		seen[n] = true
		if !IsCatalogName(n) {
			t.Errorf("IsCatalogName(%q) = false for a listed name", n)
		}
	}
	for _, want := range []string{"table1", "fig1", "faults", "speed"} {
		if !seen[want] {
			t.Errorf("catalog lacks %q", want)
		}
	}
	if IsCatalogName("doesnotexist") {
		t.Error("IsCatalogName accepted an unknown name")
	}
}

func TestNewCatalogRejectsUnknownName(t *testing.T) {
	_, err := NewCatalog(context.Background(), Quick(), []string{"nope"}, CatalogOptions{})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("NewCatalog(unknown) err = %v", err)
	}
}

// TestCatalogRunsSelection runs a small context-backed selection end to end
// and checks the dependency task built the shared context and the rendered
// sections come back in canonical order.
func TestCatalogRunsSelection(t *testing.T) {
	cfg := Quick()
	cfg.FlowsPerRow = 1
	cfg.FlowDuration = 15 * time.Second
	var logged bool
	cat, err := NewCatalog(context.Background(), cfg, []string{"scalars", "table1"}, CatalogOptions{
		Logf: func(string, ...any) { logged = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunDAG(context.Background(), cat.Tasks, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cat.ectx == nil {
		t.Error("Context nil after the campaigns task ran")
	}
	if !logged {
		t.Error("Logf never invoked")
	}
	var order []string
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("task %s: %v", r.Name, r.Err)
		}
		order = append(order, r.Name)
	}
	want := []string{CampaignsTaskName, "table1", "scalars"}
	if len(order) != len(want) {
		t.Fatalf("task order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("task order %v, want %v", order, want)
		}
	}
	if !strings.Contains(results[1].Output, "TABLE I") {
		t.Error("table1 section not rendered")
	}
	// The kept sections are what the tasks printed, in canonical order.
	secs := cat.Sections()
	if len(secs) != 2 || secs[0].Heading != "TABLE I" || secs[1].Heading != "HEADLINE CLAIMS" {
		t.Fatalf("Sections = %d sections, want TABLE I then HEADLINE CLAIMS", len(secs))
	}
	for i, sec := range secs {
		if got := export.Text(sec); got != results[i+1].Output {
			t.Errorf("section %q prints differently from its task output", sec.Heading)
		}
	}
}

// TestCatalogForceCampaigns schedules the campaigns task with no consumer.
func TestCatalogForceCampaigns(t *testing.T) {
	cat, err := NewCatalog(context.Background(), Quick(), nil, CatalogOptions{ForceCampaigns: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Tasks) != 1 || cat.Tasks[0].Name != CampaignsTaskName {
		names := make([]string, len(cat.Tasks))
		for i, task := range cat.Tasks {
			names[i] = task.Name
		}
		t.Fatalf("tasks = %v, want exactly [%s]", names, CampaignsTaskName)
	}
}
