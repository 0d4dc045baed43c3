package dataset

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/faults"
)

func TestFaultedFlowDiffersFromBaseline(t *testing.T) {
	d := 30 * time.Second
	base := hsrScenario(t, cellular.ChinaMobileLTE, 11, d)
	faulted := base
	faulted.Faults = faults.Stress(d)

	mb, _, err := RunFlowMetrics(base)
	if err != nil {
		t.Fatalf("baseline flow: %v", err)
	}
	mf, _, err := RunFlowMetrics(faulted)
	if err != nil {
		t.Fatalf("faulted flow: %v", err)
	}
	if reflect.DeepEqual(mb, mf) {
		t.Fatal("stress schedule produced a flow identical to the baseline")
	}
	if mf.ThroughputPps >= mb.ThroughputPps {
		t.Errorf("faulted throughput %.1f pps >= baseline %.1f pps; the stress schedule should hurt",
			mf.ThroughputPps, mb.ThroughputPps)
	}
}

func TestEmptyScheduleIsExactBaseline(t *testing.T) {
	d := 20 * time.Second
	base := hsrScenario(t, cellular.ChinaMobileLTE, 12, d)
	withEmpty := base
	withEmpty.Faults = &faults.Schedule{}

	mb, _, err := RunFlowMetrics(base)
	if err != nil {
		t.Fatalf("baseline flow: %v", err)
	}
	me, _, err := RunFlowMetrics(withEmpty)
	if err != nil {
		t.Fatalf("empty-schedule flow: %v", err)
	}
	if !reflect.DeepEqual(mb, me) {
		t.Fatal("an empty fault schedule perturbed the flow; wrapping must be skipped entirely")
	}
}

func TestFaultedCampaignParallelismDeterministic(t *testing.T) {
	sched := faults.Stress(15 * time.Second)
	run := func(par int) *Campaign {
		c, err := RunCampaign(CampaignConfig{
			Seed: 7, FlowDuration: 15 * time.Second, FlowsPerRow: 2,
			Parallelism: par, Faults: sched,
		})
		if err != nil {
			t.Fatalf("faulted campaign (par=%d): %v", par, err)
		}
		return c
	}
	seq, par := run(1), run(4)
	if len(par.Results) != len(seq.Results) {
		t.Fatalf("parallel results = %d, sequential = %d", len(par.Results), len(seq.Results))
	}
	for i := range seq.Results {
		if !reflect.DeepEqual(par.Results[i].Metrics, seq.Results[i].Metrics) {
			t.Errorf("result %d metrics differ between Parallelism 4 and 1 (flow %s)",
				i, seq.Results[i].Metrics.Meta.ID)
		}
	}
}

func TestCampaignCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCampaign(CampaignConfig{
		Seed: 1, FlowDuration: 10 * time.Second, FlowsPerRow: 1, Ctx: ctx,
	})
	if err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
}

func TestScenarioValidateRejectsBadFaults(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaMobileLTE, 1, 10*time.Second)
	sc.Faults = &faults.Schedule{Episodes: []faults.Episode{
		{Kind: faults.AckBurst, Start: time.Second, Dur: time.Second, P: 7},
	}}
	if err := sc.Validate(); err == nil {
		t.Error("scenario with invalid fault schedule accepted")
	}
}
