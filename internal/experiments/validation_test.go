package experiments

import (
	"repro/internal/export"
	"strings"
	"testing"
)

func TestModelValidationOnStaticChannel(t *testing.T) {
	res, err := ModelValidation(Quick())
	if err != nil {
		t.Fatalf("ModelValidation: %v", err)
	}
	if len(res.Points) != 7 {
		t.Fatalf("points = %d, want 7", len(res.Points))
	}
	// Throughput must fall monotonically with the loss rate.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].ActualPps >= res.Points[i-1].ActualPps {
			t.Errorf("actual pps not decreasing at p_d=%v", res.Points[i].PData)
		}
	}
	// On its home turf the Padhye model must fit reasonably well.
	if res.MeanDPadhye > 0.30 {
		t.Errorf("Padhye mean D on a static Bernoulli channel = %v, want <= 30%%", res.MeanDPadhye)
	}
	// And the enhanced model must not be wildly off either (it reduces to
	// Padhye's world when P_a ~ 0 and q ~ p_d).
	if res.MeanDEnh > 0.35 {
		t.Errorf("enhanced mean D on a static channel = %v, want <= 35%%", res.MeanDEnh)
	}
	if !strings.Contains(export.Text(res.Section()), "validation") {
		t.Error("render missing title")
	}
}
