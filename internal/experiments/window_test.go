package experiments

import (
	"repro/internal/export"
	"strings"
	"testing"
)

func TestWindowTrace(t *testing.T) {
	fig1, err := Figure1(Quick())
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	res, err := WindowTrace(fig1)
	if err != nil {
		t.Fatalf("WindowTrace: %v", err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no window samples")
	}
	if len(res.Timeouts) == 0 {
		t.Error("no timeout marks on an HSR flow")
	}
	// The window must stay within (0, Wm] and visit both low (post-timeout)
	// and high (near the limit) values.
	var lo, hi float64 = 1e9, 0
	for _, s := range res.Samples {
		if s.Cwnd <= 0 || s.Cwnd > float64(res.Wm)+1e-9 {
			t.Fatalf("cwnd sample %v outside (0, %d]", s.Cwnd, res.Wm)
		}
		if s.Cwnd < lo {
			lo = s.Cwnd
		}
		if s.Cwnd > hi {
			hi = s.Cwnd
		}
	}
	if lo > 2 {
		t.Errorf("window never collapsed (min %v) despite timeouts", lo)
	}
	if hi < float64(res.Wm)/2 {
		t.Errorf("window never grew past Wm/2 (max %v)", hi)
	}
	out := export.Text(res.Section())
	if !strings.Contains(out, "Window evolution") || !strings.Contains(out, "timeouts") {
		t.Error("render incomplete")
	}
}

func TestWindowTraceValidation(t *testing.T) {
	if _, err := WindowTrace(nil); err == nil {
		t.Error("nil input accepted")
	}
}
