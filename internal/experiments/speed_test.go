package experiments

import (
	"repro/internal/export"
	"strings"
	"testing"
)

func TestSpeedSweep(t *testing.T) {
	res, err := SpeedSweep(Quick())
	if err != nil {
		t.Fatalf("SpeedSweep: %v", err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4 (0/100/200/300 km/h)", len(res.Points))
	}
	// Throughput must fall monotonically with speed, and the HSR level must
	// be far below stationary.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].MeanTputPps >= res.Points[i-1].MeanTputPps {
			t.Errorf("throughput not decreasing at %.0f km/h: %v after %v",
				res.Points[i].SpeedKmh, res.Points[i].MeanTputPps, res.Points[i-1].MeanTputPps)
		}
	}
	stationary, hsr := res.Points[0], res.Points[3]
	if hsr.MeanTputPps > stationary.MeanTputPps/2 {
		t.Errorf("300 km/h pps (%v) should be under half of stationary (%v)",
			hsr.MeanTputPps, stationary.MeanTputPps)
	}
	if hsr.TimeoutSequences <= stationary.TimeoutSequences {
		t.Error("HSR should have far more timeout sequences than stationary")
	}
	if !strings.Contains(export.Text(res.Section()), "Speed sweep") {
		t.Error("render missing title")
	}
}
