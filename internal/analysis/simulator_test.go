package analysis_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cellular"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/railway"
	"repro/internal/tcp"
)

// scenario builds one test flow on the Beijing–Tianjin line, starting at the
// trip's cruise window, with the given speed profile.
func scenario(t *testing.T, op cellular.Operator, profile railway.SpeedProfile, seed int64, d time.Duration) dataset.Scenario {
	t.Helper()
	trip, err := railway.NewTrip(railway.BeijingTianjin, profile)
	if err != nil {
		t.Fatalf("NewTrip: %v", err)
	}
	start, _ := trip.CruiseWindow()
	return dataset.Scenario{
		ID: "test-flow", Operator: op, Trip: trip, TripOffset: start,
		FlowDuration: d, Seed: seed, TCP: tcp.DefaultConfig(), Scenario: "hsr",
	}
}

// TestStreamingMatchesBatchFlows runs the same scenarios through the
// materializing simulator (RunFlow) and the streaming one (RunFlowMetrics)
// and requires the batch oracle over the materialized trace, Analyze over
// the same trace, and the streamed metrics to be identical, with identical
// endpoint stats.
func TestStreamingMatchesBatchFlows(t *testing.T) {
	scenarios := []dataset.Scenario{
		scenario(t, cellular.ChinaMobileLTE, railway.DefaultProfile, 1, 45*time.Second),
		scenario(t, cellular.ChinaUnicom3G, railway.DefaultProfile, 2, 30*time.Second),
		scenario(t, cellular.ChinaTelecom3G, railway.DefaultProfile, 3, 30*time.Second),
	}
	stat := scenario(t, cellular.ChinaMobileLTE, railway.StationaryProfile, 4, 30*time.Second)
	stat.TripOffset = 0
	stat.Scenario = "stationary"
	scenarios = append(scenarios, stat)
	faulty := scenario(t, cellular.ChinaMobileLTE, railway.DefaultProfile, 5, 30*time.Second)
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
		ft, wantStats, err := dataset.RunFlow(sc)
		if err != nil {
			t.Fatalf("%s: RunFlow: %v", sc.ID, err)
		}
		want, err := analysis.BatchAnalyze(ft)
		if err != nil {
			t.Fatalf("%s: batch oracle: %v", sc.ID, err)
		}
		replayed, err := analysis.Analyze(ft)
		if err != nil {
			t.Fatalf("%s: Analyze: %v", sc.ID, err)
		}
		if !reflect.DeepEqual(want, replayed) {
			t.Errorf("%s seed %d: Analyze diverged from the batch oracle:\nbatch:    %+v\nreplayed: %+v",
				sc.ID, sc.Seed, want, replayed)
		}
		got, gotStats, err := dataset.RunFlowMetrics(sc)
		if err != nil {
			t.Fatalf("%s: RunFlowMetrics: %v", sc.ID, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s seed %d: streaming metrics diverged:\nbatch:     %+v\nstreaming: %+v",
				sc.ID, sc.Seed, want, got)
		}
		if wantStats != gotStats {
			t.Errorf("%s seed %d: endpoint stats diverged:\nbatch:     %+v\nstreaming: %+v",
				sc.ID, sc.Seed, wantStats, gotStats)
		}
	}
}

// batchCampaign materializes every flow of the campaign's plan and reduces
// it with the batch oracle, in campaign order. Flows run GOMAXPROCS at a
// time: the Default-scale campaign takes a minute under the race detector
// when run one by one.
func batchCampaign(t *testing.T, cfg dataset.CampaignConfig) []*analysis.FlowMetrics {
	t.Helper()
	plan, err := dataset.PlanCampaign(cfg)
	if err != nil {
		t.Fatalf("PlanCampaign: %v", err)
	}
	out := make([]*analysis.FlowMetrics, len(plan))
	errs := make([]error, len(plan))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, pf := range plan {
		wg.Add(1)
		sem <- struct{}{}
		go func(pf dataset.PlannedFlow) {
			defer func() { <-sem; wg.Done() }()
			ft, _, err := dataset.RunFlow(pf.Scenario)
			if err == nil {
				out[pf.Index], err = analysis.BatchAnalyze(ft)
			}
			if err != nil {
				errs[pf.Index] = fmt.Errorf("flow %s: %w", pf.Scenario.ID, err)
			}
		}(pf)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// campaignMatchesBatch runs the campaign through the streaming pipeline and
// requires every flow's metrics to equal the batch oracle's over that flow's
// materialized trace.
func campaignMatchesBatch(t *testing.T, cfg dataset.CampaignConfig, wantFlows int) {
	t.Helper()
	camp, err := dataset.RunCampaign(cfg)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	got := camp.Metrics()
	if len(got) != wantFlows {
		t.Fatalf("campaign has %d flows, want %d", len(got), wantFlows)
	}
	want := batchCampaign(t, cfg)
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("flow %d (%s): streaming campaign diverged from the batch oracle:\nbatch:     %+v\nstreaming: %+v",
				i, want[i].Meta.ID, want[i], got[i])
		}
	}
}

// TestCampaignMatchesBatch checks a small campaign flow by flow against the
// batch oracle over materialized traces.
func TestCampaignMatchesBatch(t *testing.T) {
	campaignMatchesBatch(t, dataset.CampaignConfig{Seed: 9, FlowDuration: 10 * time.Second, FlowsPerRow: 2, Parallelism: 8}, 8)
}

// TestDefaultCampaignMatchesBatch is the full-scale version: the complete
// Default() Table I campaign (255 HSR flows, 120 s each). -short skips it
// and the quick-scale test above keeps covering the logic.
func TestDefaultCampaignMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full Default()-scale campaign; run without -short")
	}
	campaignMatchesBatch(t, dataset.CampaignConfig{Seed: 1, FlowDuration: 120 * time.Second}, 255)
}
