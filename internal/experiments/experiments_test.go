package experiments

import (
	"repro/internal/export"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	ctxOnce sync.Once
	ctxVal  *Context
	ctxErr  error
)

// testContext builds one Quick-sized context shared by all tests.
func testContext(t *testing.T) *Context {
	t.Helper()
	ctxOnce.Do(func() {
		ctxVal, ctxErr = NewContext(Quick())
	})
	if ctxErr != nil {
		t.Fatalf("NewContext: %v", ctxErr)
	}
	return ctxVal
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("Default config invalid: %v", err)
	}
	if err := Quick().Validate(); err != nil {
		t.Errorf("Quick config invalid: %v", err)
	}
	bad := Quick()
	bad.FlowDuration = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero duration accepted")
	}
	bad = Quick()
	bad.SizedSegments = 1
	if err := bad.Validate(); err == nil {
		t.Error("tiny sized segments accepted")
	}
	bad = Quick()
	bad.PairsPerOperator = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero pairs accepted")
	}
}

func TestTable1(t *testing.T) {
	ctx := testContext(t)
	res := Table1(ctx)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (Table I)", len(res.Rows))
	}
	if res.TotalFlows != 16 {
		t.Errorf("total flows = %d, want 16 in Quick config", res.TotalFlows)
	}
	if res.TotalSimGB <= 0 {
		t.Error("no simulated payload")
	}
	out := export.Text(res.Section())
	for _, want := range []string{"China Mobile", "China Unicom", "China Telecom", "January 2015", "October 2015"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigure1And2(t *testing.T) {
	res, err := Figure1(Quick())
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no delivery points")
	}
	if len(res.Timeouts) == 0 {
		t.Fatal("the Figure1 flow has no timeouts to number")
	}
	var lost int
	for _, p := range res.Points {
		if p.Lost {
			lost++
		}
	}
	if lost == 0 {
		t.Error("no lost packets in the scatter")
	}
	out := export.Text(res.Section())
	if !strings.Contains(out, "Fig 1") || !strings.Contains(out, "timeout sequences") {
		t.Errorf("Figure1 render incomplete:\n%s", out)
	}

	f2, err := Figure2(res)
	if err != nil {
		t.Fatalf("Figure2: %v", err)
	}
	if f2.Phase.Duration() <= 0 {
		t.Error("Figure2 phase has no duration")
	}
	if len(f2.Events) == 0 {
		t.Error("Figure2 has no events")
	}
	out2 := export.Text(f2.Section())
	if !strings.Contains(out2, "timeout") || !strings.Contains(out2, "backoff") {
		t.Errorf("Figure2 render incomplete:\n%s", out2)
	}
}

func TestFigure2RequiresFigure1(t *testing.T) {
	if _, err := Figure2(nil); err == nil {
		t.Error("Figure2(nil) accepted")
	}
}

func TestFigure3(t *testing.T) {
	ctx := testContext(t)
	res := Figure3(ctx)
	if len(res.RecoveryLoss) == 0 || len(res.LifetimeLoss) == 0 {
		t.Fatal("missing loss distributions")
	}
	// The paper's central observation: q is orders of magnitude above the
	// lifetime data loss rate.
	if res.MeanRecovery < 5*res.MeanLifetime {
		t.Errorf("mean q (%v) should dwarf lifetime loss (%v)", res.MeanRecovery, res.MeanLifetime)
	}
	if !strings.Contains(export.Text(res.Section()), "Fig 3") {
		t.Error("render missing title")
	}
}

func TestFigure4(t *testing.T) {
	ctx := testContext(t)
	res := Figure4(ctx)
	if len(res.AckLoss) < 8 {
		t.Fatalf("only %d flows in correlation", len(res.AckLoss))
	}
	// Positive correlation between ACK loss and timeout probability.
	if res.Pearson <= 0 {
		t.Errorf("Pearson = %v, want positive", res.Pearson)
	}
	if !strings.Contains(export.Text(res.Section()), "Pearson") {
		t.Error("render missing statistics")
	}
}

func TestFigure6(t *testing.T) {
	ctx := testContext(t)
	res := Figure6(ctx)
	if res.MeanHSR <= res.MeanStationary {
		t.Errorf("HSR ACK loss (%v) must exceed stationary (%v)", res.MeanHSR, res.MeanStationary)
	}
	// Roughly an order of magnitude apart, like the paper's 0.661% vs 0.0718%.
	if res.MeanHSR < 3*res.MeanStationary {
		t.Errorf("HSR/stationary ACK loss ratio = %v, want >= 3", res.MeanHSR/res.MeanStationary)
	}
	if !strings.Contains(export.Text(res.Section()), "Fig 6") {
		t.Error("render missing title")
	}
}

func TestFigure10(t *testing.T) {
	ctx := testContext(t)
	res, err := Figure10(ctx)
	if err != nil {
		t.Fatalf("Figure10: %v", err)
	}
	if len(res.Operators) != 3 {
		t.Fatalf("operators = %d, want 3", len(res.Operators))
	}
	// The headline result: the enhanced model beats the Padhye baseline.
	if res.MeanDEnh >= res.MeanDPadhye {
		t.Errorf("enhanced mean D (%v) should beat Padhye (%v)", res.MeanDEnh, res.MeanDPadhye)
	}
	if res.ImprovePts <= 0 {
		t.Error("no improvement in percentage points")
	}
	for _, op := range res.Operators {
		if len(op.Flows) == 0 {
			t.Errorf("operator %s has no flows", op.Name)
		}
		for _, f := range op.Flows {
			if f.ActualPps <= 0 || f.PadhyePps <= 0 || f.EnhPps <= 0 {
				t.Errorf("non-positive throughput in fit %+v", f)
			}
		}
	}
	if !strings.Contains(export.Text(res.Section()), "Fig 10") {
		t.Error("render missing title")
	}
}

func TestScalars(t *testing.T) {
	ctx := testContext(t)
	res := Scalars(ctx)
	// HSR recoveries are multi-second; stationary ones sub-second-ish.
	if res.MeanRecoveryHSR < 2*time.Second {
		t.Errorf("HSR mean recovery = %v, want multi-second", res.MeanRecoveryHSR)
	}
	if res.StationaryTimeoutSeqs > 0 && res.MeanRecoveryStationary >= res.MeanRecoveryHSR/2 {
		t.Errorf("stationary recovery %v should be far below HSR %v",
			res.MeanRecoveryStationary, res.MeanRecoveryHSR)
	}
	if res.SpuriousFraction <= 0.2 {
		t.Errorf("spurious fraction = %v, want substantial (paper: 49.24%%)", res.SpuriousFraction)
	}
	if res.MeanAckLossHSR <= res.MeanAckLossStationary {
		t.Error("HSR ACK loss must exceed stationary")
	}
	if !strings.Contains(export.Text(res.Section()), "5.05") {
		t.Error("render missing paper reference values")
	}
}

func TestModelAblation(t *testing.T) {
	ctx := testContext(t)
	res, err := ModelAblation(ctx)
	if err != nil {
		t.Fatalf("ModelAblation: %v", err)
	}
	if len(res.Variants) != 5 {
		t.Fatalf("variants = %d, want 5", len(res.Variants))
	}
	for _, v := range res.Variants {
		if v.MeanD <= 0 {
			t.Errorf("variant %s has mean D %v", v.Name, v.MeanD)
		}
	}
	// Sensitivity curves must be monotone decreasing.
	for i := 1; i < len(res.PaSweep); i++ {
		if res.PaSweep[i].Pps >= res.PaSweep[i-1].Pps {
			t.Errorf("TP not decreasing in P_a at %v", res.PaSweep[i].X)
		}
	}
	for i := 1; i < len(res.QSweep); i++ {
		if res.QSweep[i].Pps >= res.QSweep[i-1].Pps {
			t.Errorf("TP not decreasing in q at %v", res.QSweep[i].X)
		}
	}
	if !strings.Contains(export.Text(res.Section()), "sensitivity") {
		t.Error("render missing sensitivity plots")
	}
}

func TestNewContextRejectsBadConfig(t *testing.T) {
	if _, err := NewContext(Config{}); err == nil {
		t.Error("zero config accepted")
	}
}
