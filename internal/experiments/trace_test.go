package experiments

import (
	"context"
	"testing"
	"time"

	"repro/internal/tracing"
)

// renderCatalog builds and runs a small catalog selection at the given DAG
// width, optionally traced, and returns the concatenated rendered sections.
func renderCatalog(t *testing.T, jobs int, tr *tracing.Trace, parent string) string {
	t.Helper()
	cfg := Quick()
	cfg.FlowsPerRow = 1
	cfg.FlowDuration = 15 * time.Second
	cfg.Trace = tr
	cfg.TraceParent = parent
	cat, err := NewCatalog(context.Background(), cfg, []string{"scalars", "table1"}, CatalogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunDAG(context.Background(), cat.Tasks, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out string
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("task %s: %v", r.Name, r.Err)
		}
		out += r.Name + "\n" + r.Output + "\n"
	}
	return out
}

// TestCatalogByteIdentityAcrossJobsAndTracing is the determinism acceptance
// check at the DAG layer: rendered outputs must be byte-identical across
// -jobs 1 vs 8 and tracing off vs on, and the traced run must yield a
// well-formed span tree covering run → task → campaign → flow.
func TestCatalogByteIdentityAcrossJobsAndTracing(t *testing.T) {
	ref := renderCatalog(t, 1, nil, "")

	if got := renderCatalog(t, 8, nil, ""); got != ref {
		t.Fatalf("output diverged between -jobs 1 and -jobs 8:\n%s\nvs\n%s", ref, got)
	}

	tr := tracing.New("exp-trace")
	root := tr.StartSpan("", "run", "catalog")
	if got := renderCatalog(t, 8, tr, root.ID()); got != ref {
		t.Fatalf("output diverged with tracing on:\n%s\nvs\n%s", ref, got)
	}
	root.End()

	spans := tr.Spans()
	if err := tracing.Validate(spans); err != nil {
		t.Fatalf("catalog trace not well formed: %v", err)
	}
	byKind := map[string]int{}
	for _, s := range spans {
		byKind[s.Kind]++
	}
	for _, kind := range []string{"run", "task", "campaign", "flow"} {
		if byKind[kind] == 0 {
			t.Fatalf("no %q spans in the catalog trace (kinds: %v)", kind, byKind)
		}
	}
	// Both shared campaigns and all three tasks get spans.
	if byKind["campaign"] < 2 || byKind["task"] < 3 {
		t.Fatalf("span coverage too thin: %v", byKind)
	}
}
