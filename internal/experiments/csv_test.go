package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCSVTables(t *testing.T) {
	ctx := testContext(t)
	f3 := Figure3(ctx)
	if s := f3.Section(); s.CSVName != "fig3_loss_rates" || len(s.CSV.Rows) != len(f3.RecoveryLoss)+len(f3.LifetimeLoss) {
		t.Errorf("fig3 csv %q rows = %d", s.CSVName, len(s.CSV.Rows))
	}
	f4 := Figure4(ctx)
	if s := f4.Section(); s.CSVName != "fig4_ack_vs_timeouts" || len(s.CSV.Rows) != len(f4.AckLoss) {
		t.Errorf("fig4 csv %q rows = %d, want %d", s.CSVName, len(s.CSV.Rows), len(f4.AckLoss))
	}
	f6 := Figure6(ctx)
	if s := f6.Section(); s.CSVName != "fig6_ack_loss" || len(s.CSV.Rows) != len(f6.HSR)+len(f6.Stationary) {
		t.Errorf("fig6 csv %q rows = %d", s.CSVName, len(s.CSV.Rows))
	}
	f10, err := Figure10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tab := f10.Section().CSV
	var flows int
	for _, op := range f10.Operators {
		flows += len(op.Flows)
	}
	if len(tab.Rows) != flows {
		t.Errorf("fig10 csv rows = %d, want %d", len(tab.Rows), flows)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !strings.HasPrefix(buf.String(), "flow,operator,actual_pps") {
		t.Errorf("csv header = %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
}

func TestWriteCSVCreatesFile(t *testing.T) {
	ctx := testContext(t)
	dir := t.TempDir()
	if err := WriteCSV(dir, "fig4", Figure4(ctx).Section().CSV); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig4.csv"))
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !strings.Contains(string(data), "ack_loss_rate") {
		t.Error("csv content missing header")
	}
}
