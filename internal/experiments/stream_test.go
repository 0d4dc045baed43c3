package experiments

import (
	"runtime"
	"testing"
)

// metricsOnlyGate bounds the bytes one metrics-only experiment call may
// allocate at quick scale. A flow that streams into a pooled analyzer
// allocates well under a megabyte; one that materializes its event list
// allocates tens of megabytes per flow, so the gate separates the two
// with room on both sides.
const metricsOnlyGate = 4 << 20

// TestMetricsOnlyFlowsStream checks that the experiments which only reduce
// their flows to metrics never materialize a flow's events: each subject is
// warmed once (so the analyzer pool and one-time tables are populated) and
// the allocation of one further call is gated. The test is deliberately
// not parallel: TotalAlloc is process-wide.
func TestMetricsOnlyFlowsStream(t *testing.T) {
	cfg := Quick()
	subjects := []struct {
		name string
		run  func() error
	}{
		{"runStaticFlow", func() error { _, _, err := runStaticFlow(cfg, 0.0005); return err }},
		{"Eifel", func() error { _, err := Eifel(cfg); return err }},
		{"BackupQ", func() error { _, err := BackupQ(cfg); return err }},
		{"ModelValidation", func() error { _, err := ModelValidation(cfg); return err }},
	}
	for _, s := range subjects {
		if err := s.run(); err != nil {
			t.Fatalf("%s warm-up: %v", s.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.run(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %.2f MB allocated (gate %.0f MB)", s.name, float64(bytes)/(1<<20), float64(metricsOnlyGate)/(1<<20))
		if bytes > metricsOnlyGate {
			t.Errorf("%s allocated %d bytes in one quick-scale call, gate is %d: a metrics-only flow is materializing its trace", s.name, bytes, metricsOnlyGate)
		}
	}
}
