package dataset

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/tcp"
	"repro/internal/telemetry"
)

func TestJainIndex(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0, 0, 0}, 0},
		{[]float64{5}, 1},
		{[]float64{3, 3, 3, 3}, 1},
		{[]float64{1, 0, 0, 0}, 0.25}, // maximally unfair: 1/n
	}
	for _, c := range cases {
		if got := JainIndex(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("JainIndex(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	// Unequal shares land strictly between 1/n and 1.
	got := JainIndex([]float64{10, 20, 30})
	if got <= 1.0/3 || got >= 1 {
		t.Errorf("JainIndex(10,20,30) = %v, want in (1/3, 1)", got)
	}
}

// contendedFlows builds a small mixed-variant group for the tests.
func contendedFlows(t *testing.T, n int, withTel bool) []Scenario {
	t.Helper()
	variants := tcp.Variants()
	flows := make([]Scenario, n)
	for i := range flows {
		sc := hsrScenario(t, cellular.ChinaMobileLTE, int64(100+i), 10*time.Second)
		sc.ID = "contend-" + variants[i%len(variants)].String()
		sc.TCP.Variant = variants[i%len(variants)]
		sc.TripOffset += time.Duration(i) * 11 * time.Second
		if withTel {
			sc.Telemetry = telemetry.NewFlow()
		}
		flows[i] = sc
	}
	return flows
}

func TestRunContendedDeterministic(t *testing.T) {
	a, err := RunContended(ContendedConfig{Flows: contendedFlows(t, 5, false)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContended(ContendedConfig{Flows: contendedFlows(t, 5, false)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("equal-seed contended runs diverged:\n%+v\n%+v", a, b)
	}
	var delivered int64
	for i, r := range a {
		if r.CC != tcp.Variants()[i].String() {
			t.Errorf("flow %d reports CC %q, want %q", i, r.CC, tcp.Variants()[i])
		}
		delivered += r.Stats.UniqueDelivered
	}
	if delivered == 0 {
		t.Fatal("contended group delivered nothing")
	}
}

func TestRunContendedSharedQueueActuallyContends(t *testing.T) {
	// One flow alone vs the same flow inside a 5-flow group: contention for
	// the shared transmitter must cost it throughput.
	solo, err := RunContended(ContendedConfig{Flows: contendedFlows(t, 1, false)})
	if err != nil {
		t.Fatal(err)
	}
	group, err := RunContended(ContendedConfig{Flows: contendedFlows(t, 5, false)})
	if err != nil {
		t.Fatal(err)
	}
	if group[0].Stats.UniqueDelivered >= solo[0].Stats.UniqueDelivered {
		t.Errorf("flow delivered %d contending with 4 others, %d alone — no contention visible",
			group[0].Stats.UniqueDelivered, solo[0].Stats.UniqueDelivered)
	}
}

func TestRunContendedRejectsMixedOperators(t *testing.T) {
	flows := contendedFlows(t, 2, false)
	flows[1].Operator = cellular.ChinaUnicom3G
	if _, err := RunContended(ContendedConfig{Flows: flows}); err == nil {
		t.Fatal("mixed-operator group accepted")
	}
	if _, err := RunContended(ContendedConfig{}); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestRunContendedTelemetryByCC(t *testing.T) {
	flows := contendedFlows(t, 5, true)
	if _, err := RunContended(ContendedConfig{Flows: flows}); err != nil {
		t.Fatal(err)
	}
	camp := telemetry.NewCampaign()
	for i := range flows {
		camp.AddFlow(flows[i].Telemetry)
	}
	_, _, tc, _, _ := camp.Counters()
	if len(tc.ByCC) != len(tcp.Variants()) {
		t.Fatalf("ByCC has %d variants, want %d: %v", len(tc.ByCC), len(tcp.Variants()), tc.ByCC)
	}
	var flowsSeen int64
	for name, cs := range tc.ByCC {
		if cs.Flows != 1 {
			t.Errorf("variant %s counted %d flows, want 1", name, cs.Flows)
		}
		if cs.DataSent == 0 {
			t.Errorf("variant %s reports no data sent", name)
		}
		flowsSeen += cs.Flows
	}
	if flowsSeen != tc.Flows {
		t.Errorf("per-CC flows sum %d != total %d", flowsSeen, tc.Flows)
	}
}

// TestCacheKeyDistinguishesVariants is the no-collision check for the CC
// field of the content address: every variant (same scenario otherwise)
// must map to its own cache entry.
func TestCacheKeyDistinguishesVariants(t *testing.T) {
	cache, err := OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, v := range tcp.Variants() {
		sc := cachedScenario(t, 3)
		sc.TCP.Variant = v
		key, err := cache.key(sc)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("variants %s and %s collide on cache key %s", prev, v, key)
		}
		seen[key] = v.String()
	}
	if len(seen) != len(tcp.Variants()) {
		t.Fatalf("expected %d distinct keys, got %d", len(tcp.Variants()), len(seen))
	}
}
