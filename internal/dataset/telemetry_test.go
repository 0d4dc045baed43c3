package dataset

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// TestTelemetryDoesNotPerturbFlow verifies the nil-sink contract end to end:
// attaching a full telemetry bundle must leave the packet trace byte-identical to an uninstrumented run of the same seed.
func TestTelemetryDoesNotPerturbFlow(t *testing.T) {
	base := hsrScenario(t, cellular.ChinaMobileLTE, 42, 20*time.Second)
	base.Faults = faults.Stress(base.FlowDuration)

	plain, plainStats, err := RunFlow(base)
	if err != nil {
		t.Fatalf("RunFlow (plain): %v", err)
	}

	instrumented := base
	instrumented.Telemetry = telemetry.NewFlow()
	traced, tracedStats, err := RunFlow(instrumented)
	if err != nil {
		t.Fatalf("RunFlow (instrumented): %v", err)
	}

	if plainStats != tracedStats {
		t.Errorf("stats differ:\nplain: %+v\ninstr: %+v", plainStats, tracedStats)
	}
	if !reflect.DeepEqual(plain.Events, traced.Events) {
		t.Fatalf("event streams differ: %d vs %d events", len(plain.Events), len(traced.Events))
	}
}

// TestFlowTelemetryConsistency checks the harvested bundle against the
// flow's own counters and basic cross-section invariants on every carrier,
// with and without faults.Stress, and on a hand-placed schedule whose
// episodes must each be attributed drops. The link counters must balance
// the endpoint counters exactly: Link.Send is the only place offered
// packets and drops are counted.
func TestFlowTelemetryConsistency(t *testing.T) {
	for _, op := range []cellular.Operator{cellular.ChinaMobileLTE, cellular.ChinaUnicom3G, cellular.ChinaTelecom3G} {
		for _, stress := range []bool{false, true} {
			sc := hsrScenario(t, op, 7, 45*time.Second)
			name := op.Name + "/no-faults"
			if stress {
				sc.Faults = faults.Stress(sc.FlowDuration)
				name = op.Name + "/stress"
			}
			t.Run(name, func(t *testing.T) { checkFlowTelemetry(t, sc) })
		}
	}

	t.Run("hand-placed", func(t *testing.T) {
		sc := hsrScenario(t, cellular.ChinaMobileLTE, 7, 30*time.Second)
		// Non-overlapping episodes: under faults.Stress a storm outage can
		// cover the blackout window, in which case the inner channel model
		// (consulted first) claims every drop and no drop is attributable
		// to the schedule.
		sched, err := faults.New(
			faults.Episode{Kind: faults.Blackout, Start: 10 * time.Second, Dur: 3 * time.Second},
			faults.Episode{Kind: faults.AckBurst, Start: 20 * time.Second, Dur: 2 * time.Second, P: 0.9},
			faults.Episode{Kind: faults.Storm, Start: 25 * time.Second, Dur: 4 * time.Second, Count: 1, Outage: 2 * time.Second},
		)
		if err != nil {
			t.Fatalf("faults.New: %v", err)
		}
		sc.Faults = sched
		tel := checkFlowTelemetry(t, sc)
		if tel.TCP.RecoveryPhases == 0 || tel.TCP.RecoveryNS <= 0 {
			t.Errorf("faulted flow recorded no recovery phases (%d, %dns)",
				tel.TCP.RecoveryPhases, tel.TCP.RecoveryNS)
		}
		if tel.Faults.DataDrops == 0 {
			t.Errorf("blackout episode attributed no data drops")
		}
		if tel.Faults.AckDrops == 0 {
			t.Errorf("ACK-burst episode attributed no ACK drops")
		}
	})
}

// checkFlowTelemetry runs sc with a telemetry bundle attached, checks the
// invariants that hold for any flow and returns the bundle.
func checkFlowTelemetry(t *testing.T, sc Scenario) *telemetry.Flow {
	t.Helper()
	tel := telemetry.NewFlow()
	sc.Telemetry = tel
	_, st, err := RunFlow(sc)
	if err != nil {
		t.Fatalf("RunFlow: %v", err)
	}

	if tel.TCP.Flows != 1 {
		t.Errorf("TCP.Flows = %d, want 1", tel.TCP.Flows)
	}
	if tel.TCP.DataSent != st.DataSent || tel.TCP.Timeouts != st.Timeouts ||
		tel.TCP.AcksDropped != st.AcksDropped {
		t.Errorf("TCP telemetry diverges from Stats:\ntel: %+v\nstats: %+v", tel.TCP, st)
	}
	if tel.TCP.Cwnd.N() != int(st.AcksReceived) {
		t.Errorf("Cwnd samples = %d, want one per received ACK (%d)", tel.TCP.Cwnd.N(), st.AcksReceived)
	}
	if tel.TCP.CwndHist.Total() != int64(tel.TCP.Cwnd.N()) {
		t.Errorf("CwndHist total %d != Cwnd samples %d", tel.TCP.CwndHist.Total(), tel.TCP.Cwnd.N())
	}
	if tel.TCP.BackoffHist.Total() != st.Timeouts {
		t.Errorf("BackoffHist total %d != timeouts %d", tel.TCP.BackoffHist.Total(), st.Timeouts)
	}

	if tel.Kernel.Events == 0 || tel.Kernel.Scheduled == 0 {
		t.Errorf("kernel counters empty: %+v", tel.Kernel)
	}
	if tel.Kernel.VirtualNS <= 0 || tel.Kernel.BudgetEvents <= 0 {
		t.Errorf("kernel run totals missing: %+v", tel.Kernel)
	}
	if tel.Kernel.BudgetHeadroom() <= 0.9 {
		t.Errorf("BudgetHeadroom = %v; a normal flow should barely touch the budget", tel.Kernel.BudgetHeadroom())
	}

	data, ack := tel.Net.Data, tel.Net.Ack
	if data.Offered != st.DataSent {
		t.Errorf("Net.Data.Offered = %d, want DataSent %d", data.Offered, st.DataSent)
	}
	if drops := data.ChannelDrops + data.QueueDrops; drops != st.DataDropped {
		t.Errorf("data drops %d != Stats.DataDropped %d", drops, st.DataDropped)
	}
	if received := st.UniqueDelivered + st.DupDelivered; data.Delivered != received {
		t.Errorf("Net.Data.Delivered = %d, want UniqueDelivered + DupDelivered %d", data.Delivered, received)
	}
	if ack.Offered != st.AcksSent {
		t.Errorf("Net.Ack.Offered = %d, want AcksSent %d", ack.Offered, st.AcksSent)
	}
	if drops := ack.ChannelDrops + ack.QueueDrops; drops != st.AcksDropped {
		t.Errorf("ACK drops %d != Stats.AcksDropped %d", drops, st.AcksDropped)
	}
	if ack.Delivered != st.AcksReceived {
		t.Errorf("Net.Ack.Delivered = %d, want AcksReceived %d", ack.Delivered, st.AcksReceived)
	}

	wantSchedules := int64(1)
	if sc.Faults.Empty() {
		wantSchedules = 0
	}
	if tel.Faults.Schedules != wantSchedules {
		t.Errorf("Faults.Schedules = %d, want %d", tel.Faults.Schedules, wantSchedules)
	}
	episodes, storms := sc.Faults.Counts()
	if tel.Faults.Episodes != int64(episodes) || tel.Faults.StormOutages != int64(storms) {
		t.Errorf("Faults counts = %+v, want %d episodes / %d storm outages", tel.Faults, episodes, storms)
	}
	if tel.WallNS <= 0 {
		t.Errorf("WallNS = %d, want > 0", tel.WallNS)
	}
	return tel
}

// TestCampaignTelemetryReproducibleAcrossParallelism is the acceptance
// criterion for deterministic aggregation: the counter sections must be
// bit-identical between -jobs 1 and -jobs 8 runs of the same seed.
func TestCampaignTelemetryReproducibleAcrossParallelism(t *testing.T) {
	run := func(par int) *telemetry.Campaign {
		camp := telemetry.NewCampaign()
		_, err := RunCampaign(CampaignConfig{
			Seed: 3, FlowDuration: 10 * time.Second, FlowsPerRow: 2,
			Parallelism: par, Telemetry: camp,
		})
		if err != nil {
			t.Fatalf("RunCampaign(par=%d): %v", par, err)
		}
		return camp
	}
	seq := run(1)
	par := run(8)
	n1, k1, t1, net1, f1 := seq.Counters()
	n8, k8, t8, net8, f8 := par.Counters()
	if n1 != n8 {
		t.Fatalf("flow counts differ: %d vs %d", n1, n8)
	}
	if k1 != k8 {
		t.Errorf("kernel counters differ:\njobs=1: %+v\njobs=8: %+v", k1, k8)
	}
	if !reflect.DeepEqual(t1, t8) {
		t.Errorf("tcp counters differ:\njobs=1: %+v\njobs=8: %+v", t1, t8)
	}
	if net1 != net8 {
		t.Errorf("net counters differ:\njobs=1: %+v\njobs=8: %+v", net1, net8)
	}
	if f1 != f8 {
		t.Errorf("fault counters differ:\njobs=1: %+v\njobs=8: %+v", f1, f8)
	}
}

// TestCampaignProgressCallback checks the per-flow progress stream: every
// flow reports exactly once and the final call carries done == total.
func TestCampaignProgressCallback(t *testing.T) {
	var mu sync.Mutex
	var calls []int
	total := -1
	_, err := RunCampaign(CampaignConfig{
		Seed: 1, FlowDuration: 5 * time.Second, FlowsPerRow: 1, Parallelism: 4,
		Progress: func(done, tot int) {
			mu.Lock()
			calls = append(calls, done)
			total = tot
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	want := 4 // one flow per Table I row
	if total != want || len(calls) != want {
		t.Fatalf("progress calls = %d (total %d), want %d", len(calls), total, want)
	}
	sort.Ints(calls)
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress done values = %v, want a permutation of 1..%d", calls, want)
		}
	}
}
