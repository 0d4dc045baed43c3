package experiments

import (
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestWarmCacheServesEverySweep runs every study built on runSweep, and
// BackupQ's plain flows, twice over one fresh flow cache: the first pass
// simulates each flow once, the second is served entirely from the cache.
func TestWarmCacheServesEverySweep(t *testing.T) {
	cache, err := dataset.OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Seed:             5,
		FlowDuration:     15 * time.Second,
		SizedSegments:    500,
		PairsPerOperator: 1,
		Cache:            cache,
	}
	flows := cfg.PairsPerOperator * 2
	studies := []struct {
		name  string
		flows int
		run   func() error
	}{
		{"DelayedAck", 5 * flows, func() error { _, err := DelayedAck(cfg); return err }},
		{"ChannelSensitivity", 3 * flows, func() error { _, err := ChannelSensitivity(cfg); return err }},
		{"Variants", 2 * flows, func() error { _, err := Variants(cfg); return err }},
		{"SpeedSweep", 4 * flows, func() error { _, err := SpeedSweep(cfg); return err }},
		{"FaultSweep", len(faultSeverities) * flows, func() error { _, err := FaultSweep(cfg); return err }},
		{"Eifel", 2 * flows, func() error { _, err := Eifel(cfg); return err }},
		{"BackupQ", cfg.PairsPerOperator, func() error { _, err := BackupQ(cfg); return err }},
	}
	for pass, wantHits := range []bool{false, true} {
		for _, s := range studies {
			before := cache.Counters()
			if err := s.run(); err != nil {
				t.Fatalf("%s pass %d: %v", s.name, pass+1, err)
			}
			after := cache.Counters()
			hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
			want := [2]int64{0, int64(s.flows)} // hits, misses
			if wantHits {
				want = [2]int64{int64(s.flows), 0}
			}
			if [2]int64{hits, misses} != want {
				t.Errorf("%s pass %d: %d hits / %d misses, want %d / %d",
					s.name, pass+1, hits, misses, want[0], want[1])
			}
		}
	}
}
