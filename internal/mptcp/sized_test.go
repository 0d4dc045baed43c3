package mptcp

import (
	"testing"
	"time"

	"repro/internal/cellular"
)

func TestRunSizedSingleCompletes(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaMobileLTE, 3, 5*time.Minute)
	res, err := RunSizedSingle(sc, 2000)
	if err != nil {
		t.Fatalf("RunSizedSingle: %v", err)
	}
	if !res.Completed {
		t.Fatal("sized flow did not complete within a generous horizon")
	}
	if res.Segments != 2000 {
		t.Errorf("Segments = %d, want 2000", res.Segments)
	}
	if res.ThroughputPps <= 0 || res.Duration <= 0 {
		t.Errorf("result = %+v", res)
	}
	// Throughput must equal segments / completion time.
	want := 2000 / res.Duration.Seconds()
	if diff := res.ThroughputPps - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("ThroughputPps = %v, want %v", res.ThroughputPps, want)
	}
}

func TestRunSizedSingleHorizonCutoff(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaTelecom3G, 5, 3*time.Second)
	res, err := RunSizedSingle(sc, 500000) // cannot finish in 3 s
	if err != nil {
		t.Fatalf("RunSizedSingle: %v", err)
	}
	if res.Completed {
		t.Error("impossible transfer reported complete")
	}
	if res.Duration != 3*time.Second {
		t.Errorf("Duration = %v, want the 3s horizon", res.Duration)
	}
}

func TestRunSizedDuplexSplitsOddSizes(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaMobileLTE, 7, 5*time.Minute)
	res, err := RunSizedDuplex(sc, 1001) // odd: 500 + 501
	if err != nil {
		t.Fatalf("RunSizedDuplex: %v", err)
	}
	if res.Segments != 1001 {
		t.Errorf("Segments = %d, want 1001", res.Segments)
	}
	if !res.Completed {
		t.Error("duplex transfer did not complete")
	}
	if res.ThroughputPps <= 0 {
		t.Error("no aggregate throughput")
	}
}

func TestSizedValidation(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaMobileLTE, 1, time.Minute)
	if _, err := RunSizedSingle(sc, 0); err == nil {
		t.Error("zero segments accepted")
	}
	bad := sc
	bad.FlowDuration = 0
	if _, err := RunSizedSingle(bad, 10); err == nil {
		t.Error("invalid scenario accepted by RunSizedSingle")
	}
}

func TestCompareSizedImprovementConsistent(t *testing.T) {
	sc := hsrScenario(t, cellular.ChinaUnicom3G, 2, 5*time.Minute)
	single, duplex, imp, err := CompareSized(sc, 1500)
	if err != nil {
		t.Fatalf("CompareSized: %v", err)
	}
	if single <= 0 || duplex <= 0 {
		t.Fatalf("throughputs = %v / %v", single, duplex)
	}
	want := (duplex - single) / single
	if diff := imp - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("improvement = %v, want %v", imp, want)
	}
}
