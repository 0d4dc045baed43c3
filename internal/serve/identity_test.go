package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// campaignSpec is the reduced campaign the identity tests run: small enough
// to finish in seconds, large enough that every Table I row simulates flows.
const campaignSpec = `{"kind":"campaign","seed":3,"quick":true,"duration":"15s","flows_per_row":1}`

// directCampaignReport runs the same campaign the spec describes through the
// CLI's own code path (catalog + DAG + MetricsReport, exactly like hsrbench
// -metrics) and returns the report.
func directCampaignReport(t *testing.T, cache *dataset.FlowCache) *telemetry.Report {
	t.Helper()
	cfg := experiments.Quick()
	cfg.Seed = 3
	cfg.FlowDuration = 15 * time.Second
	cfg.FlowsPerRow = 1
	cfg.Cache = cache
	camp := telemetry.NewCampaign()
	cfg.Telemetry = camp
	cat, err := experiments.NewCatalog(context.Background(), cfg, nil,
		experiments.CatalogOptions{ForceCampaigns: true})
	if err != nil {
		t.Fatalf("catalog: %v", err)
	}
	results, err := experiments.RunDAG(context.Background(), cat.Tasks, 1, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var cc *telemetry.Cache
	if cache != nil {
		c := cache.Counters()
		cc = &c
	}
	return experiments.MetricsReport("hsrbench", cfg.Seed, camp, cc, results, time.Now())
}

// serveCampaignReport submits the campaign spec to a server and returns the
// terminal event's report.
func serveCampaignReport(t *testing.T, srv *Server) (*telemetry.Report, time.Duration) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	start := time.Now()
	resp := postJob(t, ts.Client(), ts.URL, campaignSpec)
	defer resp.Body.Close()
	last := terminal(t, readEvents(t, resp.Body))
	elapsed := time.Since(start)
	if last.Event != "result" || last.Status != "ok" {
		t.Fatalf("terminal %+v", last)
	}
	if last.Report == nil {
		t.Fatalf("no report in result")
	}
	return last.Report, elapsed
}

// campaignJSON marshals a report's deterministic campaign sections — the
// Counters() contract: everything except the wall-clock resource fields,
// which are host measurements by design (like task wall times and process
// resources elsewhere in the report).
func campaignJSON(t *testing.T, rep *telemetry.Report) []byte {
	t.Helper()
	flows, kernel, tcp, net, faults := rep.Campaign.Counters()
	raw, err := json.Marshal(struct {
		Flows  int64            `json:"flows"`
		Kernel telemetry.Kernel `json:"kernel"`
		TCP    telemetry.TCP    `json:"tcp"`
		Net    telemetry.Net    `json:"net"`
		Faults telemetry.Faults `json:"faults"`
	}{flows, kernel, tcp, net, faults})
	if err != nil {
		t.Fatalf("marshal campaign: %v", err)
	}
	return raw
}

// TestServeCampaignMatchesCLI is the service's reproducibility contract: a
// campaign job over HTTP reports campaign counters byte-identical to the
// same seed and scale run through the hsrbench code path — cold cache, warm
// cache, and at different worker-pool sizes.
func TestServeCampaignMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign")
	}
	direct := directCampaignReport(t, nil)
	if direct.Campaign == nil {
		t.Fatalf("direct run collected no campaign telemetry")
	}
	want := campaignJSON(t, direct)

	for _, workers := range []int{1, 4} {
		srv := New(Config{Workers: workers, QueueDepth: 4})
		rep, _ := serveCampaignReport(t, srv)
		srv.Drain()
		if rep.Tool != "hsrserved" {
			t.Fatalf("report tool %q", rep.Tool)
		}
		if rep.Seed != 3 {
			t.Fatalf("report seed %d", rep.Seed)
		}
		got := campaignJSON(t, rep)
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: campaign section differs from CLI run:\nCLI:  %s\nHTTP: %s",
				workers, want, got)
		}
	}
}

// TestServeCampaignWarmCache runs the same campaign job twice against one
// cached server: the second run must be served from the cache (every flow a
// hit) and fast, and report the same campaign telemetry as the cold run —
// every cached flow carries its telemetry, so a warm campaign section
// equals a cold one on both surfaces.
func TestServeCampaignWarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign")
	}
	dir := t.TempDir()
	cache, err := dataset.OpenFlowCache(dir)
	if err != nil {
		t.Fatalf("cache: %v", err)
	}
	srv := New(Config{Workers: 2, QueueDepth: 4, Cache: cache})
	defer srv.Drain()

	cold, _ := serveCampaignReport(t, srv)
	if cold.Campaign == nil {
		t.Fatalf("cold run collected no campaign telemetry")
	}
	if cold.Cache == nil || cold.Cache.Misses == 0 || cold.Cache.Hits != 0 {
		t.Fatalf("cold run cache counters %+v", cold.Cache)
	}
	want := campaignJSON(t, cold)

	warm, elapsed := serveCampaignReport(t, srv)
	if warm.Campaign == nil {
		t.Fatalf("warm run reported no campaign telemetry")
	}
	if got := campaignJSON(t, warm); !bytes.Equal(got, want) {
		t.Errorf("warm campaign section differs from the cold one:\ncold: %s\nwarm: %s", want, got)
	}
	if warm.Cache == nil || warm.Cache.Hits == 0 {
		t.Fatalf("warm run cache counters %+v", warm.Cache)
	}
	if warm.Cache.Misses != cold.Cache.Misses {
		t.Fatalf("warm run missed: cold %d misses, warm %d", cold.Cache.Misses, warm.Cache.Misses)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("warm campaign took %v, want < 100ms", elapsed)
	}

	// A warm direct (CLI-path) run against the same cache directory must
	// agree with the warm HTTP run.
	cliCache, err := dataset.OpenFlowCache(dir)
	if err != nil {
		t.Fatalf("cache reopen: %v", err)
	}
	direct := directCampaignReport(t, cliCache)
	if direct.Campaign == nil {
		t.Fatalf("warm CLI run reported no campaign telemetry")
	}
	if got := campaignJSON(t, direct); !bytes.Equal(got, want) {
		t.Errorf("warm CLI campaign section differs from the cold HTTP one:\ncold: %s\nwarm: %s", want, got)
	}
	if c := cliCache.Counters(); c.Misses != 0 || c.Hits == 0 {
		t.Errorf("warm CLI run cache counters %+v, want hits only", c)
	}
}

// TestServeFlowJobCached verifies flow jobs share the server cache: the
// second identical submission is served from disk and marked cached, with
// identical metrics.
func TestServeFlowJobCached(t *testing.T) {
	cache, err := dataset.OpenFlowCache(t.TempDir())
	if err != nil {
		t.Fatalf("cache: %v", err)
	}
	srv := New(Config{Workers: 2, QueueDepth: 4, Cache: cache})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := `{"kind":"flow","duration":"5s","seed":11,"operator":"china-unicom","faults":"blackout@2s+1s"}`
	resp := postJob(t, ts.Client(), ts.URL, spec)
	first := terminal(t, readEvents(t, resp.Body))
	resp.Body.Close()
	if first.Cached {
		t.Fatalf("first submission reported cached")
	}

	resp = postJob(t, ts.Client(), ts.URL, spec)
	second := terminal(t, readEvents(t, resp.Body))
	resp.Body.Close()
	if !second.Cached {
		t.Fatalf("second submission not served from cache")
	}
	a, _ := json.Marshal(first.Flow)
	b, _ := json.Marshal(second.Flow)
	if !bytes.Equal(a, b) {
		t.Fatalf("cached flow differs:\nfirst:  %s\nsecond: %s", a, b)
	}
	// The cache entry carries the flow's telemetry; the response does not.
	if first.Flow.Telemetry != nil || second.Flow.Telemetry != nil {
		t.Fatalf("flow job response carries telemetry: %s", a)
	}
}
