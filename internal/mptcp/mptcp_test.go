package mptcp

import (
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/dataset"
	"repro/internal/railway"
	"repro/internal/tcp"
)

func hsrScenario(t *testing.T, op cellular.Operator, seed int64, d time.Duration) dataset.Scenario {
	t.Helper()
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		t.Fatalf("NewTrip: %v", err)
	}
	start, _ := trip.CruiseWindow()
	return dataset.Scenario{
		ID: "mptcp-test", Operator: op, Trip: trip, TripOffset: start,
		FlowDuration: d, Seed: seed, TCP: tcp.DefaultConfig(), Scenario: "hsr",
	}
}

func TestRunDuplexAggregates(t *testing.T) {
	// RunSizedDuplex reports the sum of its subflows' throughputs and the
	// pair's makespan, exactly as the paper computes its MPTCP estimate.
	sc := hsrScenario(t, cellular.ChinaMobileLTE, 3, 5*time.Minute)
	res, err := RunSizedDuplex(sc, 2000)
	if err != nil {
		t.Fatalf("RunSizedDuplex: %v", err)
	}
	conns, sizes, err := runSizedPair(sc, 2000)
	if err != nil {
		t.Fatalf("runSizedPair: %v", err)
	}
	var sum float64
	var makespan time.Duration
	for i, conn := range conns {
		r := sizedResult(conn, sizes[i], sc.FlowDuration)
		if !r.Completed || r.ThroughputPps <= 0 {
			t.Errorf("subflow %d: %+v", i, r)
		}
		sum += r.ThroughputPps
		makespan = max(makespan, r.Duration)
	}
	if res.ThroughputPps != sum || res.Duration != makespan || !res.Completed {
		t.Errorf("aggregate %+v, want pps %v and makespan %v", res, sum, makespan)
	}
}

// sizedPairs sums CompareSized's single and duplex throughputs over seeds
// 1-3.
func sizedPairs(t *testing.T, op cellular.Operator) (single, duplex float64) {
	t.Helper()
	for seed := int64(1); seed <= 3; seed++ {
		sc := hsrScenario(t, op, seed, 5*time.Minute)
		s, d, _, err := CompareSized(sc, 2000)
		if err != nil {
			t.Fatalf("CompareSized(%s): %v", op.Name, err)
		}
		single += s
		duplex += d
	}
	return single, duplex
}

func TestDuplexBeatsSingleOnHSR(t *testing.T) {
	// Average over a few seeds: subflow outages are independent, so the
	// pair should comfortably outrun one flow (the paper's Fig 12).
	single, duplex := sizedPairs(t, cellular.ChinaUnicom3G)
	t.Logf("single %.1f pps, duplex %.1f pps", single, duplex)
	if duplex <= single*1.2 {
		t.Errorf("duplex %v not clearly above single %v", duplex, single)
	}
}

func TestDuplexSubflowsDiffer(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaMobileLTE, 9, 30*time.Second)
	if a, b := subflowScenario(sc, 0), subflowScenario(sc, 1); a.Seed == b.Seed {
		t.Fatalf("both subflows have seed %d; channels not independent", a.Seed)
	}
	// A transfer too large to finish keeps both subflows busy to the
	// horizon, where their outcomes must differ.
	conns, _, err := runSizedPair(sc, 1_000_000)
	if err != nil {
		t.Fatalf("runSizedPair: %v", err)
	}
	a, b := conns[0].Stats(), conns[1].Stats()
	if a.UniqueDelivered == b.UniqueDelivered && a.DataDropped == b.DataDropped {
		t.Error("subflows look identical; channel seeds not independent")
	}
}

func TestRunDuplexValidation(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaMobileLTE, 1, 10*time.Second)
	if _, err := RunSizedDuplex(sc, 1); err == nil {
		t.Error("one segment for two subflows accepted")
	}
	sc.FlowDuration = 0
	if _, err := RunSizedDuplex(sc, 10); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestBackupModeReducesRecoveryImpact(t *testing.T) {
	// Compare plain TCP and backup-mode MPTCP on identical primary channels
	// over several seeds. The paper's claim is about reliability of the
	// retransmission process: double retransmission must shorten the
	// timeout recovery phases. Throughput is allowed to move only a little
	// in either direction — recovering early into a primary channel that is
	// still in outage restarts slow start, so the big throughput gains need
	// duplex mode (data on both subflows), which the paper also observes.
	var plainTput, backupTput float64
	var plainRec, backupRec time.Duration
	var backupUsed int
	for seed := int64(1); seed <= 3; seed++ {
		sc := hsrScenario(t, cellular.ChinaMobileLTE, seed, 45*time.Second)
		plain, _, err := dataset.RunFlowMetrics(sc)
		if err != nil {
			t.Fatalf("RunFlowMetrics: %v", err)
		}
		backup, err := RunBackup(sc)
		if err != nil {
			t.Fatalf("RunBackup: %v", err)
		}
		plainTput += plain.ThroughputPps
		backupTput += backup.Metrics.ThroughputPps
		plainRec += plain.MeanRecoveryDuration
		backupRec += backup.Metrics.MeanRecoveryDuration
		backupUsed += backup.BackupRetransmits
	}
	if backupUsed == 0 {
		t.Fatal("backup subflow never used despite HSR timeouts")
	}
	if backupRec >= plainRec {
		t.Errorf("backup mean recovery %v not below plain %v", backupRec, plainRec)
	}
	if backupRec > plainRec*85/100 {
		t.Errorf("backup recovery %v should be clearly below plain %v", backupRec, plainRec)
	}
	if backupTput < plainTput*0.85 {
		t.Errorf("backup throughput %v dropped more than 15%% below plain %v", backupTput, plainTput)
	}
}

func TestBackupCountersConsistent(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaTelecom3G, 5, 40*time.Second)
	res, err := RunBackup(sc)
	if err != nil {
		t.Fatalf("RunBackup: %v", err)
	}
	if res.BackupDelivered > res.BackupRetransmits {
		t.Errorf("backup delivered %d > sent %d", res.BackupDelivered, res.BackupRetransmits)
	}
	if res.Metrics == nil || res.Stats.UniqueDelivered == 0 {
		t.Error("backup run produced no data")
	}
	if res.BackupAcksDelivered == 0 {
		t.Error("no ACKs mirrored over the backup path")
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(150, 100); got != 0.5 {
		t.Errorf("Improvement = %v, want 0.5", got)
	}
	if got := Improvement(50, 100); got != -0.5 {
		t.Errorf("Improvement = %v, want -0.5", got)
	}
	if got := Improvement(10, 0); got != 0 {
		t.Errorf("Improvement with zero baseline = %v, want 0", got)
	}
}

func TestTelecomGainsMostFromDuplex(t *testing.T) {
	// The paper's Fig 12: Telecom (poor coverage) gains far more from
	// multipath than Mobile. Average over seeds to damp noise.
	gain := func(op cellular.Operator) float64 {
		single, duplex := sizedPairs(t, op)
		return Improvement(duplex, single)
	}
	mobile := gain(cellular.ChinaMobileLTE)
	telecom := gain(cellular.ChinaTelecom3G)
	t.Logf("gain: Mobile %.3f, Telecom %.3f", mobile, telecom)
	if telecom <= mobile {
		t.Errorf("Telecom duplex gain (%v) should exceed Mobile's (%v)", telecom, mobile)
	}
}
