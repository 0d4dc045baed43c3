package experiments

import (
	"context"
	"reflect"
	"repro/internal/export"
	"strings"
	"testing"
	"time"

	"repro/internal/tcp"
)

// quickCC is a short configuration for the contention experiments.
func quickCC() Config {
	cfg := Quick()
	cfg.FlowDuration = 15 * time.Second
	return cfg
}

func TestFairnessDeterministicAndComplete(t *testing.T) {
	a, err := Fairness(quickCC())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fairness(quickCC())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal-seed fairness runs diverged")
	}
	// One clean and one storm group per variant, in variant order.
	if want := 2 * len(tcp.Variants()); len(a.Groups) != want {
		t.Fatalf("%d groups, want %d", len(a.Groups), want)
	}
	for i, v := range tcp.Variants() {
		for j, cond := range []string{"clean", "storm"} {
			g := a.Groups[2*i+j]
			if g.Label != v.String()+"/"+cond {
				t.Fatalf("group %d label %q, want %s/%s", 2*i+j, g.Label, v, cond)
			}
			if len(g.Flows) != fairnessFlowsPerGroup {
				t.Fatalf("group %s has %d flows, want %d", g.Label, len(g.Flows), fairnessFlowsPerGroup)
			}
			if g.Jain <= 0 || g.Jain > 1 {
				t.Fatalf("group %s Jain index %v out of (0, 1]", g.Label, g.Jain)
			}
			for _, f := range g.Flows {
				if f.CC != v.String() {
					t.Fatalf("group %s flow %s reports CC %q", g.Label, f.ID, f.CC)
				}
			}
		}
	}
	out := export.Text(a.Section())
	for _, want := range []string{"jain", "reno/clean", "bbr/storm"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestCCMixCoversEveryVariant(t *testing.T) {
	r, err := CCMix(quickCC())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Groups) != 2 {
		t.Fatalf("%d groups, want 2 (clean + storm)", len(r.Groups))
	}
	for _, g := range r.Groups {
		seen := map[string]bool{}
		for _, f := range g.Flows {
			seen[f.CC] = true
		}
		for _, v := range tcp.Variants() {
			if !seen[v.String()] {
				t.Errorf("group %s lacks variant %s", g.Label, v)
			}
		}
	}
	if out := export.Text(r.Section()); !strings.Contains(out, "Jain") {
		t.Error("render missing the Jain index")
	}
}

func TestCatalogListAndDefaultNames(t *testing.T) {
	list := CatalogList()
	if len(list) != len(CatalogNames()) {
		t.Fatalf("CatalogList has %d entries, CatalogNames %d", len(list), len(CatalogNames()))
	}
	byName := map[string]CatalogEntry{}
	for _, e := range list {
		if e.Description == "" {
			t.Errorf("experiment %q has no description", e.Name)
		}
		byName[e.Name] = e
	}
	for _, name := range []string{"fairness", "ccmix"} {
		e, ok := byName[name]
		if !ok {
			t.Fatalf("catalog lacks %q", name)
		}
		if !e.OptIn {
			t.Errorf("%q must be opt-in", name)
		}
	}
	// The default expansion is exactly the non-opt-in catalog, in order.
	defaults := DefaultCatalogNames()
	for _, name := range defaults {
		if byName[name].OptIn {
			t.Errorf("opt-in experiment %q in the default expansion", name)
		}
	}
	if len(defaults) != len(list)-2 {
		t.Fatalf("%d default names, want %d", len(defaults), len(list)-2)
	}
}

// TestCatalogFairnessTaskPopulatesCCReport runs the two contention
// experiments through the catalog scheduler and checks the collected CC
// report is sorted and complete.
func TestCatalogFairnessTaskPopulatesCCReport(t *testing.T) {
	cat, err := NewCatalog(context.Background(), quickCC(), []string{"ccmix", "fairness"}, CatalogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cat.CCReport() != nil {
		t.Fatal("CC report non-nil before any task ran")
	}
	results, err := RunDAG(cat.Tasks, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("task %s: %v", r.Name, r.Err)
		}
	}
	rep := cat.CCReport()
	if rep == nil {
		t.Fatal("no CC report after fairness and ccmix ran")
	}
	if want := 2*len(tcp.Variants()) + 2; len(rep.Groups) != want {
		t.Fatalf("%d CC groups, want %d", len(rep.Groups), want)
	}
	for i := 1; i < len(rep.Groups); i++ {
		a, b := rep.Groups[i-1], rep.Groups[i]
		if a.Experiment > b.Experiment || (a.Experiment == b.Experiment && a.Label >= b.Label) {
			t.Fatalf("CC groups not sorted: %s/%s before %s/%s",
				a.Experiment, a.Label, b.Experiment, b.Label)
		}
	}
}
