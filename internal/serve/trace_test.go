package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/buildinfo"
	"repro/internal/dataset"
	"repro/internal/tracing"
)

// fetchTrace GETs a job's trace and parses it back into native spans.
func fetchTrace(t *testing.T, ts *httptest.Server, jobID string) []tracing.SpanRecord {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + jobID + "/trace")
	if err != nil {
		t.Fatalf("get trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("trace status %d: %s", resp.StatusCode, body)
	}
	spans, err := tracing.ReadTrace(resp.Body)
	if err != nil {
		t.Fatalf("parse trace: %v", err)
	}
	return spans
}

// kindSet buckets spans by kind.
func kindSet(spans []tracing.SpanRecord) map[string][]tracing.SpanRecord {
	byKind := map[string][]tracing.SpanRecord{}
	for _, s := range spans {
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	return byKind
}

// TestServerUnitJobTrace runs a traced unit job and checks the span tree the
// trace endpoint serves: a job root, its queue wait, one flow span per unit
// flow (each with a compute child carrying the virtual-time interval), all
// well-formed.
func TestServerUnitJobTrace(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4, Trace: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	resp := postJob(t, ts.Client(), ts.URL,
		`{"kind":"unit","unit":{"seed":5,"duration":"2s","flows_per_row":1,"start":0,"end":2}}`)
	defer resp.Body.Close()
	jobID := resp.Header.Get("X-Job-Id")
	last := terminal(t, readEvents(t, resp.Body))
	if last.Status != "ok" {
		t.Fatalf("terminal %+v", last)
	}
	if last.Spans != nil {
		t.Fatalf("spans shipped on the stream without a submitted trace context")
	}

	spans := fetchTrace(t, ts, jobID)
	if err := tracing.Validate(spans); err != nil {
		t.Fatalf("trace not well formed: %v", err)
	}
	byKind := kindSet(spans)
	if n := len(byKind["job"]); n != 1 {
		t.Fatalf("%d job spans, want 1", n)
	}
	root := byKind["job"][0]
	if root.Parent != "" || root.Name != jobID || root.Attrs["kind"] != KindUnit {
		t.Fatalf("job root %+v", root)
	}
	if root.Attrs["status"] != "ok" || root.Attrs["unit"] != "[0,2)" {
		t.Fatalf("job root attrs %v", root.Attrs)
	}
	if n := len(byKind["queue-wait"]); n != 1 {
		t.Fatalf("%d queue-wait spans, want 1", n)
	}
	if byKind["queue-wait"][0].Parent != root.ID {
		t.Fatal("queue-wait not parented under the job root")
	}
	if n := len(byKind["flow"]); n != 2 {
		t.Fatalf("%d flow spans, want 2", n)
	}
	for _, f := range byKind["flow"] {
		if f.Parent != root.ID {
			t.Fatalf("flow span %s parented under %s, want job root", f.ID, f.Parent)
		}
		if !f.Virtual || f.VEndNS <= f.VStartNS {
			t.Fatalf("flow span without a virtual interval: %+v", f)
		}
		if f.Attrs["index"] == "" || f.Attrs["operator"] == "" {
			t.Fatalf("flow span attrs %v", f.Attrs)
		}
	}
	if n := len(byKind["compute"]); n != 2 {
		t.Fatalf("%d compute spans, want 2 (no cache: every flow computes)", n)
	}
	// Virtual time is monotone per flow: each flow's interval starts at the
	// simulated epoch and its compute child carries the same clock.
	for _, c := range byKind["compute"] {
		if !c.Virtual || c.VStartNS != 0 {
			t.Fatalf("compute span virtual interval %+v", c)
		}
	}
}

// TestServerUnitJobTraceCacheHit replays a traced unit against a warm cache:
// the flows are served from entry bytes without being decoded, yet each
// flow span still carries the flow's virtual interval (from the entry
// header), matching the cold run's, and no compute span is recorded.
func TestServerUnitJobTraceCacheHit(t *testing.T) {
	cache, err := dataset.OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatalf("open cache: %v", err)
	}
	srv := New(Config{Workers: 1, QueueDepth: 4, Trace: true, Cache: cache})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	run := func() map[string][]tracing.SpanRecord {
		resp := postJob(t, ts.Client(), ts.URL,
			`{"kind":"unit","unit":{"seed":5,"duration":"2s","flows_per_row":1,"start":0,"end":2}}`)
		defer resp.Body.Close()
		jobID := resp.Header.Get("X-Job-Id")
		if last := terminal(t, readEvents(t, resp.Body)); last.Status != "ok" {
			t.Fatalf("terminal %+v", last)
		}
		spans := fetchTrace(t, ts, jobID)
		if err := tracing.Validate(spans); err != nil {
			t.Fatalf("trace not well formed: %v", err)
		}
		return kindSet(spans)
	}
	cold, warm := run(), run()
	if n := len(warm["compute"]); n != 0 {
		t.Fatalf("%d compute spans on a warm replay, want 0", n)
	}
	for _, c := range warm["cache"] {
		if c.Attrs["hit"] != "true" {
			t.Fatalf("warm cache span %+v, want a hit", c)
		}
	}
	coldByName := map[string]tracing.SpanRecord{}
	for _, f := range cold["flow"] {
		coldByName[f.Name] = f
	}
	if len(warm["flow"]) != 2 {
		t.Fatalf("%d warm flow spans, want 2", len(warm["flow"]))
	}
	for _, f := range warm["flow"] {
		if f.Attrs["cached"] != "true" || !f.Virtual || f.VStartNS != 0 || f.VEndNS <= 0 {
			t.Fatalf("cached flow span without its virtual interval: %+v", f)
		}
		if c := coldByName[f.Name]; c.VEndNS != f.VEndNS {
			t.Fatalf("flow %s virtual end %d on the hit, %d computed", f.Name, f.VEndNS, c.VEndNS)
		}
	}
}

// TestServerTraceContextPropagation submits a job carrying a trace context,
// as the distributed coordinator does: the job's spans must join the
// caller's trace, parent under the caller's span, and ship back on the
// terminal event even though the server's own Trace flag is off.
func TestServerTraceContextPropagation(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4}) // Trace intentionally off
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	resp := postJob(t, ts.Client(), ts.URL,
		`{"kind":"flow","duration":"2s","seed":3,"trace":{"id":"campaign-9","parent":"coord-7"}}`)
	defer resp.Body.Close()
	last := terminal(t, readEvents(t, resp.Body))
	if last.Status != "ok" {
		t.Fatalf("terminal %+v", last)
	}
	if len(last.Spans) == 0 {
		t.Fatal("no spans shipped on the terminal event")
	}
	var root *tracing.SpanRecord
	for i := range last.Spans {
		if last.Spans[i].Kind == "job" {
			root = &last.Spans[i]
		}
		if got := last.Spans[i].TraceID; got != "campaign-9" {
			t.Fatalf("span trace ID %q, want the submitted one", got)
		}
	}
	if root == nil {
		t.Fatal("no job span in the shipped batch")
	}
	if root.Parent != "coord-7" {
		t.Fatalf("job root parent %q, want the submitted parent span", root.Parent)
	}
}

func TestServerTraceNotFound(t *testing.T) {
	srv := New(Config{Trace: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/job-999/trace")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestTraceStoreEviction pins the bounded FIFO retention.
func TestTraceStoreEviction(t *testing.T) {
	st := newTraceStore(2)
	for i := 1; i <= 3; i++ {
		st.put(fmt.Sprintf("job-%d", i), []tracing.SpanRecord{{ID: fmt.Sprintf("s%d", i)}})
	}
	if _, ok := st.get("job-1"); ok {
		t.Fatal("oldest trace not evicted")
	}
	for _, id := range []string{"job-2", "job-3"} {
		if _, ok := st.get(id); !ok {
			t.Fatalf("%s evicted early", id)
		}
	}
	// Re-putting an existing ID replaces without double-counting its slot.
	st.put("job-3", []tracing.SpanRecord{{ID: "s3b"}})
	if spans, ok := st.get("job-3"); !ok || spans[0].ID != "s3b" {
		t.Fatalf("re-put did not replace: %+v", spans)
	}
	if _, ok := st.get("job-2"); !ok {
		t.Fatal("re-put evicted a sibling")
	}
}

// TestServerPprofGate: the profiling surface exists only when asked for.
func TestServerPprofGate(t *testing.T) {
	on := httptest.NewServer(New(Config{EnablePprof: true}).Handler())
	defer on.Close()
	resp, err := on.Client().Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatalf("get pprof: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d with -pprof on", resp.StatusCode)
	}
	resp, err = on.Client().Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("get cmdline: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}

	off := httptest.NewServer(New(Config{}).Handler())
	defer off.Close()
	resp, err = off.Client().Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatalf("get pprof: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without the flag: status %d", resp.StatusCode)
	}
}

// TestServerMetricsLatencyAndBuildInfo checks the new exposition lines:
// build_info with the version label and the queue-wait/unit-duration
// summaries, populated after a unit job ran.
func TestServerMetricsLatencyAndBuildInfo(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	resp := postJob(t, ts.Client(), ts.URL,
		`{"kind":"unit","unit":{"seed":5,"duration":"2s","flows_per_row":1,"start":0,"end":1}}`)
	last := terminal(t, readEvents(t, resp.Body))
	resp.Body.Close()
	if last.Status != "ok" {
		t.Fatalf("terminal %+v", last)
	}

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("get metrics: %v", err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	out := string(raw)
	for _, want := range []string{
		fmt.Sprintf("hsrserved_build_info{version=%q} 1\n", buildinfo.Version()),
		"hsrserved_job_queue_wait_ms_count 1\n",
		"hsrserved_unit_duration_ms_count 1\n",
		"hsrserved_unit_duration_ms_sum ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}
