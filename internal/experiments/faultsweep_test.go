package experiments

import (
	"reflect"
	"repro/internal/export"
	"strings"
	"testing"
	"time"
)

func faultSweepCfg() Config {
	return Config{
		Seed:             3,
		FlowDuration:     15 * time.Second,
		SizedSegments:    500,
		PairsPerOperator: 1,
	}
}

func TestFaultSweep(t *testing.T) {
	f, err := FaultSweep(faultSweepCfg())
	if err != nil {
		t.Fatalf("FaultSweep: %v", err)
	}
	if len(f.Points) != len(faultSeverities) {
		t.Fatalf("got %d points, want one per severity level", len(f.Points))
	}
	if f.Schedule == "" {
		t.Error("sweep result carries no schedule DSL")
	}
	base, worst := f.Points[0], f.Points[len(f.Points)-1]
	if base.Severity != 0 {
		t.Fatalf("first point severity = %v, want the baseline", base.Severity)
	}
	if worst.MeanTputPps >= base.MeanTputPps {
		t.Errorf("severity-%v throughput %.1f pps >= baseline %.1f pps; injected faults should hurt",
			worst.Severity, worst.MeanTputPps, base.MeanTputPps)
	}
	out := export.Text(f.Section())
	for _, want := range []string{"severity", "Padhye", "enhanced", f.Operator} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	if got := len(f.Section().CSV.Rows); got != len(f.Points) {
		t.Errorf("CSV rows = %d, want %d", got, len(f.Points))
	}
}

func TestFaultSweepDeterministic(t *testing.T) {
	a, err := FaultSweep(faultSweepCfg())
	if err != nil {
		t.Fatalf("FaultSweep: %v", err)
	}
	b, err := FaultSweep(faultSweepCfg())
	if err != nil {
		t.Fatalf("FaultSweep: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two sweeps with the same configuration differ")
	}
}

func TestFaultSweepRejectsBadConfig(t *testing.T) {
	if _, err := FaultSweep(Config{}); err == nil {
		t.Error("zero config accepted")
	}
}
