package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// testWorker spins up one in-process hsrserved worker.
func testWorker(t *testing.T) (*httptest.Server, *serve.Server) {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Drain() })
	return ts, srv
}

// reference runs the campaign single-node (no cache: every flow simulates
// and contributes telemetry) and returns its counters JSON plus results.
func reference(t *testing.T, cfg dataset.CampaignConfig) ([]byte, *dataset.Campaign) {
	t.Helper()
	ref := telemetry.NewCampaign()
	rcfg := cfg
	rcfg.Telemetry = ref
	camp, err := dataset.RunCampaign(rcfg)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	return countersJSON(t, ref), camp
}

// countersJSON marshals a campaign's deterministic counter sections.
func countersJSON(t *testing.T, c *telemetry.Campaign) []byte {
	t.Helper()
	flows, kernel, tcp, net, faults := c.Counters()
	raw, err := json.Marshal(struct {
		Flows  int64            `json:"flows"`
		Kernel telemetry.Kernel `json:"kernel"`
		TCP    telemetry.TCP    `json:"tcp"`
		Net    telemetry.Net    `json:"net"`
		Faults telemetry.Faults `json:"faults"`
	}{flows, kernel, tcp, net, faults})
	if err != nil {
		t.Fatalf("marshal counters: %v", err)
	}
	return raw
}

// assertIdentical runs the campaign through the coordinator and compares
// counters and per-flow metrics against the single-node reference.
func assertIdentical(t *testing.T, c *Coordinator, cfg dataset.CampaignConfig) {
	t.Helper()
	refBytes, refCamp := reference(t, cfg)
	got := telemetry.NewCampaign()
	dcfg := cfg
	dcfg.Telemetry = got
	camp, err := c.RunCampaign(dcfg)
	if err != nil {
		t.Fatalf("distributed campaign: %v", err)
	}
	if a, b := refBytes, countersJSON(t, got); string(a) != string(b) {
		t.Fatalf("distributed counters not byte-identical:\n%s\nvs\n%s", a, b)
	}
	if len(camp.Results) != len(refCamp.Results) {
		t.Fatalf("result count %d, want %d", len(camp.Results), len(refCamp.Results))
	}
	for i := range camp.Results {
		a, _ := json.Marshal(camp.Results[i].Metrics)
		b, _ := json.Marshal(refCamp.Results[i].Metrics)
		if string(a) != string(b) {
			t.Fatalf("flow %d metrics diverged:\n%s\nvs\n%s", i, a, b)
		}
		if camp.Results[i].Row != refCamp.Results[i].Row {
			t.Fatalf("flow %d row diverged", i)
		}
	}
}

func quickCampaign(seed int64) dataset.CampaignConfig {
	return dataset.CampaignConfig{Seed: seed, FlowDuration: 2 * time.Second, FlowsPerRow: 2}
}

// TestCoordinatorByteIdentity is the acceptance criterion in miniature: a
// two-worker distributed run is byte-identical (counters and per-flow
// metrics) to single-node, with small units forcing plenty of dispatch.
func TestCoordinatorByteIdentity(t *testing.T) {
	w1, _ := testWorker(t)
	w2, _ := testWorker(t)
	c, err := New(Config{
		Workers:           []string{w1.URL, w2.URL},
		UnitFlows:         3,
		UnitTimeout:       30 * time.Second,
		HeartbeatInterval: 100 * time.Millisecond,
		Seed:              1,
	})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	defer c.Close()

	assertIdentical(t, c, quickCampaign(11))

	f := c.Counters()
	if f.Units == 0 || f.UnitsCompleted != f.Units || f.UnitsLocal != 0 {
		t.Fatalf("fleet counters after clean run: %+v", f)
	}
}

// TestCoordinatorWarmCampaignWallTime runs one campaign twice through two
// workers that share a flow cache. The warm run's flows all come back as
// cache hits: its counters equal the cold run's, and since no flow
// simulated, it adds nothing to wall_ns.
func TestCoordinatorWarmCampaignWallTime(t *testing.T) {
	cache, err := dataset.OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i := 0; i < 2; i++ {
		srv := serve.New(serve.Config{Workers: 2, QueueDepth: 8, Cache: cache})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Drain() })
		urls = append(urls, ts.URL)
	}
	c, err := New(Config{
		Workers:           urls,
		UnitFlows:         3,
		UnitTimeout:       30 * time.Second,
		HeartbeatInterval: 100 * time.Millisecond,
		Seed:              1,
	})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	defer c.Close()

	run := func() ([]byte, int64) {
		got := telemetry.NewCampaign()
		cfg := quickCampaign(13)
		cfg.Telemetry = got
		if _, err := c.RunCampaign(cfg); err != nil {
			t.Fatalf("distributed campaign: %v", err)
		}
		return countersJSON(t, got), got.WallNS
	}
	cold, coldWall := run()
	misses := cache.Counters().Misses
	warm, warmWall := run()
	if string(cold) != string(warm) {
		t.Fatalf("warm counters differ from cold:\n%s\nvs\n%s", cold, warm)
	}
	if cc := cache.Counters(); cc.Misses != misses || cc.Hits < misses {
		t.Fatalf("warm run was not served from the cache: %+v (cold misses %d)", cc, misses)
	}
	if coldWall <= 0 {
		t.Errorf("cold campaign wall_ns = %d, want > 0", coldWall)
	}
	if warmWall != 0 {
		t.Errorf("warm campaign wall_ns = %d, want 0: every flow was a worker cache hit", warmWall)
	}
}

// TestCoordinatorWorkerKilledMidCampaign kills one of two workers while
// the campaign runs: its in-flight and queued units must be retried onto
// the survivor (or locally) and the output must stay byte-identical. The
// worker kills itself when its second unit request arrives, aborting that
// request, so a unit is always in flight on the dead worker however fast
// the machine finishes the rest of the campaign.
func TestCoordinatorWorkerKilledMidCampaign(t *testing.T) {
	w1, _ := testWorker(t)
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 8})
	h := srv.Handler()
	var units atomic.Int32
	var killed atomic.Bool
	var w2 *httptest.Server
	w2 = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs" && units.Add(1) == 2 {
			killed.Store(true)
			go w2.Close() // waits for this handler, so it cannot run inline
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, r)
	}))
	w2.Start()
	t.Cleanup(func() { w2.Close(); srv.Drain() })
	c, err := New(Config{
		Workers:           []string{w1.URL, w2.URL},
		UnitFlows:         1, // many small units: both of w2's slots get one
		UnitTimeout:       30 * time.Second,
		MaxAttempts:       4,
		BackoffBase:       10 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		FailAfter:         2,
		Seed:              2,
	})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	defer c.Close()

	assertIdentical(t, c, quickCampaign(13))
	if !killed.Load() {
		t.Fatal("worker was never killed mid-campaign")
	}
	if f := c.Counters(); f.Retries == 0 && f.UnitsLocal == 0 && f.Reassignments == 0 {
		t.Fatalf("no failure handling recorded after a worker kill: %+v", f)
	}
}

// TestCoordinatorDegradedMode takes the whole fleet down before the
// campaign: heartbeats eject every worker, the degraded watchdog finishes
// the campaign locally, and output is still byte-identical. The local
// fallback runs flows through dataset.RunPlan: a unit's outcomes equal the
// single-node campaign's for the same range, its traced flow spans have
// the one flow-span shape, and the campaign's cache serves a repeat.
func TestCoordinatorDegradedMode(t *testing.T) {
	w1, _ := testWorker(t)
	c, err := New(Config{
		Workers:           []string{w1.URL},
		UnitFlows:         2,
		UnitTimeout:       2 * time.Second,
		MaxAttempts:       2,
		BackoffBase:       10 * time.Millisecond,
		HeartbeatInterval: 30 * time.Millisecond,
		FailAfter:         2,
		Seed:              3,
	})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	defer c.Close()

	w1.CloseClientConnections()
	w1.Close()
	// Let the heartbeats eject the worker first, so the run exercises the
	// nobody-is-pulling path rather than per-request retries.
	deadline := time.Now().Add(5 * time.Second)
	for c.healthyWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never ejected")
		}
		time.Sleep(10 * time.Millisecond)
	}

	assertIdentical(t, c, quickCampaign(17))
	f := c.Counters()
	if f.Degraded == 0 {
		t.Fatalf("degraded mode not recorded: %+v", f)
	}
	if f.WorkersLost == 0 {
		t.Fatalf("worker loss not recorded: %+v", f)
	}
	if f.UnitsLocal == 0 {
		t.Fatalf("no local units in degraded mode: %+v", f)
	}
	fh := c.FleetHealth()
	if len(fh) != 1 || fh[0].Healthy {
		t.Fatalf("fleet health after loss: %+v", fh)
	}

	cfg := quickCampaign(17)
	_, refCamp := reference(t, cfg)
	plan, err := dataset.PlanCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := dataset.OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = cache
	local := func() ([]dataset.FlowOutcome, []tracing.SpanRecord) {
		tr := tracing.New("degraded")
		lcfg := cfg
		lcfg.Trace = tr
		r := &run{cfg: lcfg, plan: plan, allDone: make(chan struct{}), ctx: context.Background(), tr: tr}
		u := &unit{start: 1, end: 4, span: tr.StartSpan("", "unit", "unit[1,4)")}
		r.units = []*unit{u}
		r.remaining.Store(1)
		c.runUnitLocal(r, u)
		if u.err != nil {
			t.Fatalf("local unit: %v", u.err)
		}
		spans := tr.Spans()
		if err := tracing.Validate(spans); err != nil {
			t.Fatalf("local unit trace: %v", err)
		}
		return u.flows, spans
	}
	for pass, wantCached := range []bool{false, true} {
		flows, spans := local()
		if len(flows) != 3 {
			t.Fatalf("pass %d: %d local outcomes, want 3", pass, len(flows))
		}
		for i, o := range flows {
			a, _ := json.Marshal(o.Flow.Metrics)
			b, _ := json.Marshal(refCamp.Results[1+i].Metrics)
			if o.Index != 1+i || string(a) != string(b) {
				t.Fatalf("pass %d: local outcome %d (index %d) diverged from RunCampaign", pass, i, o.Index)
			}
			if o.Cached != wantCached || (o.WallNS > 0) == wantCached {
				t.Fatalf("pass %d: outcome %d cached %v wall %d", pass, o.Index, o.Cached, o.WallNS)
			}
		}
		byID := map[string]tracing.SpanRecord{}
		kids := map[string][]tracing.SpanRecord{}
		for _, sp := range spans {
			byID[sp.ID] = sp
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
		nflows := 0
		for _, sp := range spans {
			if sp.Kind != "flow" {
				continue
			}
			nflows++
			if p := byID[sp.Parent]; p.Kind != "attempt" || p.Attrs["local"] != "true" {
				t.Fatalf("pass %d: flow span %s not under the local attempt span", pass, sp.Name)
			}
			if sp.Attrs["operator"] == "" || sp.Attrs["cached"] != fmt.Sprint(wantCached) || !sp.Virtual {
				t.Fatalf("pass %d: flow span %s attrs %v", pass, sp.Name, sp.Attrs)
			}
			cs := kids[sp.ID]
			if len(cs) != 1 || cs[0].Kind != "cache" {
				t.Fatalf("pass %d: flow span %s has %d children, want one cache span", pass, sp.Name, len(cs))
			}
			ks := kids[cs[0].ID]
			if computed := len(ks) == 1 && ks[0].Kind == "compute"; computed == wantCached {
				t.Fatalf("pass %d: flow span %s computed %v on a cached=%v pass", pass, sp.Name, computed, wantCached)
			}
		}
		if nflows != 3 {
			t.Fatalf("pass %d: %d flow spans, want 3", pass, nflows)
		}
	}
}

// TestCoordinatorReadmission ejects a worker, revives it at the same
// address, and expects the heartbeat to readmit it into dispatch.
func TestCoordinatorReadmission(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1, QueueDepth: 4})
	defer srv.Drain()
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Start()
	addr := ts.URL

	c, err := New(Config{
		Workers:           []string{addr},
		HeartbeatInterval: 25 * time.Millisecond,
		FailAfter:         2,
		Seed:              4,
	})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	defer c.Close()

	waitHealthy := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for (c.healthyWorkers() != 0) != want {
			if time.Now().After(deadline) {
				t.Fatalf("worker health never became %v", want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	lst := ts.Listener
	ts.CloseClientConnections()
	lst.Close()
	waitHealthy(false)

	// Revive on the same address.
	srv2 := serve.New(serve.Config{Workers: 1, QueueDepth: 4})
	defer srv2.Drain()
	ts2 := httptest.NewUnstartedServer(srv2.Handler())
	ts2.Listener.Close()
	l, err := listenOn(addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	ts2.Listener = l
	ts2.Start()
	defer ts2.Close()
	waitHealthy(true)

	if f := c.Counters(); f.WorkersLost != 1 || f.WorkersReadmitted != 1 {
		t.Fatalf("lost/readmit counters: %+v", f)
	}
}

// listenOn rebinds a listener on the host:port of a previously-used URL.
func listenOn(url string) (net.Listener, error) {
	return net.Listen("tcp", strings.TrimPrefix(url, "http://"))
}
