package experiments

import (
	"repro/internal/export"
	"strings"
	"testing"
)

func TestVariantsExperiment(t *testing.T) {
	res, err := Variants(Quick())
	if err != nil {
		t.Fatalf("Variants: %v", err)
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("outcomes = %d, want 2", len(res.Outcomes))
	}
	reno, ok := res.ByName("reno")
	if !ok {
		t.Fatal("missing reno outcome")
	}
	newreno, ok := res.ByName("newreno")
	if !ok {
		t.Fatal("missing newreno outcome")
	}
	// NewReno's partial-ACK recovery must not make things worse, and the
	// handoff-driven timeouts must persist for both variants (the paper's
	// bottleneck is not fixable by better dup-ACK machinery).
	if newreno.MeanTputPps < reno.MeanTputPps*0.95 {
		t.Errorf("NewReno pps %v well below Reno %v", newreno.MeanTputPps, reno.MeanTputPps)
	}
	if newreno.TimeoutSequences == 0 || reno.TimeoutSequences == 0 {
		t.Error("handoff timeouts should persist for both variants")
	}
	if _, ok := res.ByName("nope"); ok {
		t.Error("ByName matched a nonexistent variant")
	}
	if !strings.Contains(export.Text(res.Section()), "NewReno") {
		t.Error("render missing title")
	}
}
