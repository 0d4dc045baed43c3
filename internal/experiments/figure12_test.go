package experiments

import (
	"repro/internal/export"
	"strings"
	"testing"
)

func TestFigure12(t *testing.T) {
	cfg := Quick()
	res, err := Figure12(cfg)
	if err != nil {
		t.Fatalf("Figure12: %v", err)
	}
	if len(res.Operators) != 3 {
		t.Fatalf("operators = %d, want 3", len(res.Operators))
	}
	byName := map[string]Figure12Operator{}
	for _, op := range res.Operators {
		byName[op.Name] = op
		if len(op.Pairs) != cfg.PairsPerOperator {
			t.Errorf("%s pairs = %d, want %d", op.Name, len(op.Pairs), cfg.PairsPerOperator)
		}
		if op.MeanImprovement <= 0 {
			t.Errorf("%s: MPTCP should improve throughput, got %v", op.Name, op.MeanImprovement)
		}
	}
	// The paper's ordering: Telecom gains the most, Mobile the least.
	mobile := byName["China Mobile"].MeanImprovement
	telecom := byName["China Telecom"].MeanImprovement
	if telecom <= mobile {
		t.Errorf("Telecom improvement (%v) should exceed Mobile's (%v)", telecom, mobile)
	}
	if !strings.Contains(export.Text(res.Section()), "Fig 12") {
		t.Error("render missing title")
	}
}

func TestBackupQExperiment(t *testing.T) {
	cfg := Quick()
	res, err := BackupQ(cfg)
	if err != nil {
		t.Fatalf("BackupQ: %v", err)
	}
	if len(res.Points) != cfg.PairsPerOperator {
		t.Fatalf("points = %d, want %d", len(res.Points), cfg.PairsPerOperator)
	}
	_, _, plainRec, backupRec := res.Means()
	if backupRec >= plainRec {
		t.Errorf("backup recovery %v not below plain %v", backupRec, plainRec)
	}
	used := 0
	for _, p := range res.Points {
		used += p.BackupRetx
	}
	if used == 0 {
		t.Error("backup path never used")
	}
	if !strings.Contains(export.Text(res.Section()), "Section V-B") {
		t.Error("render missing title")
	}
}

func TestDelayedAckExperiment(t *testing.T) {
	cfg := Quick()
	res, err := DelayedAck(cfg)
	if err != nil {
		t.Fatalf("DelayedAck: %v", err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d, want 5 (b in 1,2,4,8 + adaptive)", len(res.Points))
	}
	fixed := res.Points[:4]
	adaptive := res.Points[4]
	if !adaptive.Adaptive {
		t.Fatal("last point should be the adaptive receiver")
	}
	// ACK rate must fall monotonically with the fixed b.
	for i := 1; i < len(fixed); i++ {
		if fixed[i].MeanAcksPerSec >= fixed[i-1].MeanAcksPerSec {
			t.Errorf("acks/s not decreasing at b=%d: %v after %v",
				fixed[i].B, fixed[i].MeanAcksPerSec, fixed[i-1].MeanAcksPerSec)
		}
	}
	// The Section V-A effect: aggressive delayed ACKs (b=8) must produce at
	// least as many spurious timeouts as immediate ACKs (b=1).
	b1, b8 := fixed[0], fixed[3]
	if b8.SpuriousTimeouts < b1.SpuriousTimeouts {
		t.Errorf("spurious timeouts fell from %d (b=1) to %d (b=8); expected the delayed-ACK penalty",
			b1.SpuriousTimeouts, b8.SpuriousTimeouts)
	}
	// The future-work fix: the adaptive receiver must beat the static b=8
	// receiver on throughput while using fewer ACKs than b=1.
	if adaptive.MeanTputPps <= b8.MeanTputPps {
		t.Errorf("adaptive pps %v not above static b=8 %v", adaptive.MeanTputPps, b8.MeanTputPps)
	}
	if adaptive.MeanAcksPerSec >= b1.MeanAcksPerSec {
		t.Errorf("adaptive acks/s %v not below b=1 %v", adaptive.MeanAcksPerSec, b1.MeanAcksPerSec)
	}
	if !strings.Contains(export.Text(res.Section()), "delayed-ACK") {
		t.Error("render missing title")
	}
}
