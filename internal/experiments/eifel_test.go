package experiments

import (
	"repro/internal/export"
	"strings"
	"testing"
)

func TestEifelExperiment(t *testing.T) {
	res, err := Eifel(Quick())
	if err != nil {
		t.Fatalf("Eifel: %v", err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	if res.TotalUndo == 0 {
		t.Error("Eifel response never triggered on the HSR channel")
	}
	if res.MeanGain <= 0 {
		t.Errorf("mean gain = %v, want positive (most HSR timeouts are spurious)", res.MeanGain)
	}
	if !strings.Contains(export.Text(res.Section()), "Eifel") {
		t.Error("render missing title")
	}
}

func TestChannelSensitivityExperiment(t *testing.T) {
	res, err := ChannelSensitivity(Quick())
	if err != nil {
		t.Fatalf("ChannelSensitivity: %v", err)
	}
	if len(res.Levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(res.Levels))
	}
	// Longer outages must lengthen recoveries and depress throughput.
	for i := 1; i < len(res.Levels); i++ {
		if res.Levels[i].MeanRecovery <= res.Levels[i-1].MeanRecovery {
			t.Errorf("recovery not increasing with outage scale at %vx", res.Levels[i].Scale)
		}
		if res.Levels[i].MeanTputPps >= res.Levels[i-1].MeanTputPps {
			t.Errorf("throughput not decreasing with outage scale at %vx", res.Levels[i].Scale)
		}
	}
	// At every level the enhanced model must fit no worse than Padhye does
	// at the harshest level; the headline comparison is covered by Fig 10.
	last := res.Levels[len(res.Levels)-1]
	if last.MeanDEnh >= last.MeanDPadhye {
		t.Errorf("at 2x outages enhanced D (%v) should beat Padhye (%v)",
			last.MeanDEnh, last.MeanDPadhye)
	}
	if !strings.Contains(export.Text(res.Section()), "handoff") {
		t.Error("render missing title")
	}
}
