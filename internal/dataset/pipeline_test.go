package dataset

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cellular"
	"repro/internal/faults"
)

// TestStreamingMatchesBatchFlows runs the same scenarios through RunFlow,
// analyzing the materialized trace afterwards, and through RunFlowMetrics,
// which analyzes while simulating, and requires bit-identical metrics and
// endpoint stats: materializing only attaches a trace recorder, it never
// changes the simulation. (The analysis package checks both against its
// test-only batch oracle.)
func TestStreamingMatchesBatchFlows(t *testing.T) {
	scenarios := []Scenario{
		hsrScenario(t, cellular.ChinaMobileLTE, 1, 45*time.Second),
		hsrScenario(t, cellular.ChinaUnicom3G, 2, 30*time.Second),
		hsrScenario(t, cellular.ChinaTelecom3G, 3, 30*time.Second),
	}
	stat := hsrScenario(t, cellular.ChinaMobileLTE, 4, 30*time.Second)
	stat.Trip = stationaryTrip(t)
	stat.TripOffset = 0
	stat.Scenario = "stationary"
	scenarios = append(scenarios, stat)
	faulty := hsrScenario(t, cellular.ChinaMobileLTE, 5, 30*time.Second)
	sched, err := faults.New(
		faults.Episode{Kind: faults.Blackout, Start: 5 * time.Second, Dur: 2 * time.Second},
		faults.Episode{Kind: faults.AckBurst, Start: 12 * time.Second, Dur: 3 * time.Second, P: 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	faulty.Faults = sched
	scenarios = append(scenarios, faulty)

	for _, sc := range scenarios {
		ft, wantStats, err := RunFlow(sc)
		if err != nil {
			t.Fatalf("%s: RunFlow: %v", sc.ID, err)
		}
		want, err := analysis.Analyze(ft)
		if err != nil {
			t.Fatalf("%s: Analyze: %v", sc.ID, err)
		}
		got, gotStats, err := RunFlowMetrics(sc)
		if err != nil {
			t.Fatalf("%s: RunFlowMetrics: %v", sc.ID, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s seed %d: streaming metrics diverged:\nmaterialized: %+v\nstreaming:    %+v",
				sc.ID, sc.Seed, want, got)
		}
		if wantStats != gotStats {
			t.Errorf("%s seed %d: endpoint stats diverged:\nmaterialized: %+v\nstreaming:    %+v",
				sc.ID, sc.Seed, wantStats, gotStats)
		}
	}
}

// campaignMetrics flattens a campaign's per-flow metrics for comparison.
func campaignMetrics(t *testing.T, cfg CampaignConfig) []*analysis.FlowMetrics {
	t.Helper()
	camp, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	return camp.Metrics()
}

// TestCampaignPipelineEquivalence runs one small campaign streaming and
// cache-backed (cold then warm) at two parallelism levels and requires
// identical per-flow metrics everywhere. The analysis package checks the
// same campaign flow by flow against its batch oracle.
func TestCampaignPipelineEquivalence(t *testing.T) {
	base := CampaignConfig{Seed: 9, FlowDuration: 10 * time.Second, FlowsPerRow: 2}

	streaming := base
	streaming.Parallelism = 1
	want := campaignMetrics(t, streaming)

	streaming.Parallelism = 8
	if got := campaignMetrics(t, streaming); !reflect.DeepEqual(want, got) {
		t.Error("streaming campaign diverged across parallelism")
	}

	cache, err := OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	cached := base
	cached.Cache = cache
	if got := campaignMetrics(t, cached); !reflect.DeepEqual(want, got) {
		t.Error("cold-cache campaign diverged from streaming")
	}
	if c := cache.Counters(); c.Hits != 0 || c.Misses != int64(len(want)) {
		t.Errorf("cold-run counters %+v, want 0 hits / %d misses", c, len(want))
	}
	cached.Parallelism = 8
	if got := campaignMetrics(t, cached); !reflect.DeepEqual(want, got) {
		t.Error("warm-cache campaign diverged from streaming")
	}
	if c := cache.Counters(); c.Hits != int64(len(want)) {
		t.Errorf("warm-run counters %+v, want %d hits", c, len(want))
	}
}

// TestDefaultCampaignPipelineEquivalence is the full-scale version of the
// equivalence check: the complete Default() Table I campaign (255 HSR flows,
// 120 s each) streaming and through a cold then warm cache. -short skips it
// and the quick-scale test above keeps covering the logic.
func TestDefaultCampaignPipelineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full Default()-scale campaign; run without -short")
	}
	base := CampaignConfig{Seed: 1, FlowDuration: 120 * time.Second}

	want := campaignMetrics(t, base)
	if len(want) != 255 {
		t.Fatalf("Default campaign has %d flows, want 255", len(want))
	}

	cache, err := OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	cached := base
	cached.Cache = cache
	if got := campaignMetrics(t, cached); !reflect.DeepEqual(want, got) {
		t.Error("cold-cache Default campaign diverged from streaming")
	}
	if got := campaignMetrics(t, cached); !reflect.DeepEqual(want, got) {
		t.Error("warm-cache Default campaign diverged from streaming")
	}
	if c := cache.Counters(); c.Hits != 255 || c.Errors != 0 {
		t.Errorf("warm-run counters %+v, want 255 hits / 0 errors", c)
	}
}

// TestRunFlowMetricsAllocs is the CI gate on the streaming pipeline's
// allocation budget: the materialized pipeline costs ~188 allocations per
// 30-second flow (trace slices included); the pooled streaming path measures
// 163 now that the endpoints keep their per-segment state in ring buffers
// instead of maps. The bound leaves a little headroom over the measurement
// without letting the trace arena (or map churn) creep back in.
func TestRunFlowMetricsAllocs(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaMobileLTE, 0, 30*time.Second)
	n := 0
	run := func() {
		sc.Seed = int64(n) // vary the flow so pooling, not caching, is measured
		n++
		if _, _, err := RunFlowMetrics(sc); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every code path before measuring: the first flows populate the
	// arena pools, and under the race detector the first traversal of each
	// path also allocates one-time shadow state. Measuring only warmed
	// iterations makes the count deterministic in both build modes.
	for i := 0; i < 5; i++ {
		run()
	}
	avg := testing.AllocsPerRun(20, run)
	gate := 168.0
	if raceEnabled {
		// The race runtime adds a bounded per-flow overhead (goroutine
		// shadow stacks and sync-event buffers) on top of the pipeline's own
		// allocations; the warmed count measures a flat 174/flow.
		gate = 180.0
	}
	if avg > gate {
		t.Errorf("RunFlowMetrics allocates %.1f/flow, gate is %.0f (materialized baseline ~188)", avg, gate)
	}
	t.Logf("RunFlowMetrics: %.1f allocs/flow (gate %.0f)", avg, gate)
}
