package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// countersJSON marshals a campaign's deterministic counter sections (the
// Counters() contract — everything except wall-clock resource fields).
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
		t.Fatalf("marshal campaign counters: %v", err)
	}
	return raw
}

// TestUnitJobByteIdentity runs a campaign as unit jobs against a worker
// server and replays the shipped flows in plan order: the reassembled
// telemetry counters must be byte-identical to a local RunCampaign with
// telemetry attached (the Counters() contract — wall time is a host
// measurement), and the metrics must match flow for flow. This is the
// worker half of the distributed contract; internal/dist tests the
// coordinator.
func TestUnitJobByteIdentity(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 4})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := dataset.CampaignConfig{Seed: 7, FlowDuration: 2 * time.Second, FlowsPerRow: 2}
	plan, err := dataset.PlanCampaign(cfg)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}

	// Reference: a plain local campaign with telemetry.
	ref := telemetry.NewCampaign()
	refCfg := cfg
	refCfg.Telemetry = ref
	refCamp, err := dataset.RunCampaign(refCfg)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	refBytes := countersJSON(t, ref)

	// Distributed: three uneven units over the worker's HTTP surface.
	bounds := []int{0, 3, 4, len(plan)}
	flows := make([]UnitFlow, 0, len(plan))
	for u := 0; u+1 < len(bounds); u++ {
		spec := fmt.Sprintf(`{"kind":"unit","unit":{"seed":7,"duration":"2s","flows_per_row":2,"start":%d,"end":%d}}`,
			bounds[u], bounds[u+1])
		resp := postJob(t, ts.Client(), ts.URL, spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("unit job status %d", resp.StatusCode)
		}
		last := terminal(t, readEvents(t, resp.Body))
		resp.Body.Close()
		if last.Event != "result" || last.Unit == nil {
			t.Fatalf("unit terminal %+v", last)
		}
		if got, want := len(last.Unit.Flows), bounds[u+1]-bounds[u]; got != want {
			t.Fatalf("unit [%d,%d): %d flows, want %d", bounds[u], bounds[u+1], got, want)
		}
		flows = append(flows, last.Unit.Flows...)
	}

	// Reassemble exactly like the coordinator: AddFlow in plan order.
	merged := telemetry.NewCampaign()
	for i, uf := range flows {
		if uf.Index != i {
			t.Fatalf("flow %d shipped with index %d", i, uf.Index)
		}
		ent, err := dataset.DecodeFlowPayload(uf.Flow)
		if err != nil {
			t.Fatalf("flow %d payload: %v", i, err)
		}
		merged.AddFlow(ent.Telemetry.Restore())
		if a, _ := json.Marshal(ent.Metrics); true {
			b, _ := json.Marshal(refCamp.Results[i].Metrics)
			if string(a) != string(b) {
				t.Fatalf("flow %d metrics diverged:\n%s\nvs\n%s", i, a, b)
			}
		}
	}
	gotBytes := countersJSON(t, merged)
	if string(refBytes) != string(gotBytes) {
		t.Fatalf("distributed telemetry not byte-identical:\n%s\nvs\n%s", refBytes, gotBytes)
	}
}

// TestUnitJobCachedReplayIdentical re-runs a unit against a shared cache:
// the second run must be served from telemetry-complete entries and carry
// byte-identical flow payloads — the property reassignment and hedging
// lean on for their at-most-once effect. A worker without a cache ships the
// same bytes: cached and computed flows share one encoder, and no payload
// holds host wall time, which travels beside it (0 for a cached flow).
func TestUnitJobCachedReplayIdentical(t *testing.T) {
	cache, err := dataset.OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatalf("open cache: %v", err)
	}
	cached := New(Config{Workers: 1, QueueDepth: 2, Cache: cache})
	defer cached.Drain()
	uncached := New(Config{Workers: 1, QueueDepth: 2})
	defer uncached.Drain()

	spec := `{"kind":"unit","unit":{"seed":3,"duration":"2s","flows_per_row":1,"start":0,"end":2}}`
	run := func(srv *Server) *UnitResult {
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp := postJob(t, ts.Client(), ts.URL, spec)
		defer resp.Body.Close()
		last := terminal(t, readEvents(t, resp.Body))
		if last.Unit == nil {
			t.Fatalf("no unit payload: %+v", last)
		}
		return last.Unit
	}
	first, second, plain := run(cached), run(cached), run(uncached)
	if first.CacheHits != 0 || second.CacheHits != 2 {
		t.Fatalf("cold unit hit %d, replayed unit hit %d of 2 cached flows", first.CacheHits, second.CacheHits)
	}
	for i := range first.Flows {
		a, b, c := first.Flows[i].Flow, second.Flows[i].Flow, plain.Flows[i].Flow
		if !bytes.Equal(a, b) {
			t.Fatalf("cached replay of flow %d diverged:\n%s\nvs\n%s", i, a, b)
		}
		if !bytes.Equal(a, c) {
			t.Fatalf("uncached flow %d diverged from the cached one:\n%s\nvs\n%s", i, c, a)
		}
		cc, err := dataset.DecodeFlowPayload(c)
		if err != nil {
			t.Fatal(err)
		}
		if enc, _ := cc.MarshalBinary(); !bytes.Equal(enc, c) {
			t.Fatalf("uncached flow %d is not the encoder's bytes for its value", i)
		}
		if first.Flows[i].WallNS <= 0 || plain.Flows[i].WallNS <= 0 || second.Flows[i].WallNS != 0 {
			t.Fatalf("flow %d wall times: cold %d, uncached %d, replayed %d; want >0, >0, 0",
				i, first.Flows[i].WallNS, plain.Flows[i].WallNS, second.Flows[i].WallNS)
		}
	}
}

// TestReadyz covers the readiness probe's three answers: ready, degraded
// (coordinator with a fully-unhealthy fleet) and draining (503).
func TestReadyz(t *testing.T) {
	fleet := []FleetWorker{{URL: "http://w1", Healthy: false, ConsecutiveFails: 3}}
	srv := New(Config{Workers: 1, QueueDepth: 1, Fleet: func() []FleetWorker { return fleet }})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(wantStatus int) readyzBody {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatalf("readyz: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("readyz status %d, want %d", resp.StatusCode, wantStatus)
		}
		var body readyzBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("readyz decode: %v", err)
		}
		return body
	}

	if body := get(http.StatusOK); body.Status != "degraded" || len(body.Fleet) != 1 {
		t.Fatalf("unhealthy fleet: %+v", body)
	}
	fleet[0].Healthy = true
	if body := get(http.StatusOK); body.Status != "ready" {
		t.Fatalf("healthy fleet: %+v", body)
	}
	srv.StartDrain()
	if body := get(http.StatusServiceUnavailable); body.Status != "draining" {
		t.Fatalf("draining: %+v", body)
	}
}

// TestStreamAbortUnblocksEmit is the backpressure fix at the stream level:
// once the handler declares the client gone, even must-deliver emits on a
// full buffer return immediately instead of wedging the worker goroutine.
func TestStreamAbortUnblocksEmit(t *testing.T) {
	st := newStream()
	for i := 0; i < cap(st.ch); i++ {
		st.emit(Event{Event: "flows"})
	}
	st.abort()
	done := make(chan struct{})
	go func() {
		st.emit(Event{Event: "result"}) // buffer full + aborted: must not block
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("emit blocked on a full, aborted stream")
	}
}

// TestWriteEventMatchesEncoder pins the unit-result writer to encoding/json:
// for unit results built from real cache payloads, WriteEvent's line is
// byte-identical to json.NewEncoder(w).Encode(e) — cached and computed
// flows (the latter with their wall time), with and without cache hits,
// with and without a span batch.
func TestWriteEventMatchesEncoder(t *testing.T) {
	cache, err := dataset.OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatalf("open cache: %v", err)
	}
	plan, err := dataset.PlanCampaign(dataset.CampaignConfig{Seed: 4, FlowDuration: 2 * time.Second, FlowsPerRow: 1})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	outs, err := dataset.RunPlan(dataset.CampaignConfig{Cache: cache}, plan[:2], true)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	payload := func(i int) []byte { return outs[i].Payload }
	wall := func(i int) int64 { return outs[i].WallNS }
	computed := []UnitFlow{{Index: 0, Flow: payload(0), WallNS: wall(0)}, {Index: 1, Flow: payload(1), WallNS: wall(1)}}
	hit := []UnitFlow{{Index: 0, Flow: payload(0), Cached: true}, {Index: 1, Flow: payload(1), Cached: true}}
	mixed := []UnitFlow{{Index: 0, Flow: payload(0), Cached: true}, {Index: 1, Flow: payload(1), WallNS: wall(1)}}

	tr := tracing.New("trace-<&>")
	sp := tr.StartSpan("", "job", "job-1")
	sp.SetAttr("unit", "[0,2) <&>  ")
	sp.End()
	spans := tr.Spans()

	units := map[string]*UnitResult{
		"computed":      {Start: 0, End: 2, Flows: computed},
		"all hits":      {Start: 0, End: 2, Flows: hit, CacheHits: 2},
		"mixed":         {Start: 0, End: 2, Flows: mixed, CacheHits: 1},
		"empty":         {Start: 5, End: 5, Flows: []UnitFlow{}},
		"nil flows":     {Start: 5, End: 5},
		"nil payload":   {Start: 9, End: 10, Flows: []UnitFlow{{Index: 9}}},
		"empty payload": {Start: 9, End: 10, Flows: []UnitFlow{{Index: 9, Flow: []byte{}}}},
	}
	for name, u := range units {
		for _, withSpans := range []bool{false, true} {
			e := Event{Event: "result", JobID: "job-7", Version: "v1", Status: "ok", ElapsedMS: 12.5, Unit: u}
			if withSpans {
				e.Spans = spans
			}
			var want, got bytes.Buffer
			if err := json.NewEncoder(&want).Encode(e); err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			if err := WriteEvent(&got, &e); err != nil {
				t.Fatalf("%s: WriteEvent: %v", name, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s (spans %v): WriteEvent diverged from encoding/json:\n%s\nvs\n%s", name, withSpans, got.Bytes(), want.Bytes())
			}
		}
	}
}

// TestUnitJobStreamsNoProgress checks a unit job's stream is exactly two
// lines, accepted and the terminal one: per-flow progress has no reader on
// a unit stream, so none is sent.
func TestUnitJobStreamsNoProgress(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJob(t, ts.Client(), ts.URL, `{"kind":"unit","unit":{"seed":3,"duration":"2s","flows_per_row":1,"start":0,"end":4}}`)
	defer resp.Body.Close()
	events := readEvents(t, resp.Body)
	if len(events) != 2 || events[0].Event != "accepted" || events[1].Event != "result" {
		kinds := make([]string, len(events))
		for i, e := range events {
			kinds[i] = e.Event
		}
		t.Fatalf("unit stream lines %v, want [accepted result]", kinds)
	}
	if n := len(events[1].Unit.Flows); n != 4 {
		t.Fatalf("unit result carries %d flows, want 4", n)
	}
}
