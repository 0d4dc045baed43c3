package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/buildinfo"
)

// postJob submits a job spec and returns the response; the caller owns Body.
func postJob(t *testing.T, client *http.Client, url string, spec string) *http.Response {
	t.Helper()
	resp, err := client.Post(url+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("post job: %v", err)
	}
	return resp
}

// readEvents decodes the whole NDJSON stream.
func readEvents(t *testing.T, body io.Reader) []Event {
	t.Helper()
	var events []Event
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	return events
}

// terminal returns the stream's last event after sanity-checking the first.
func terminal(t *testing.T, events []Event) Event {
	t.Helper()
	if len(events) < 2 {
		t.Fatalf("stream too short: %+v", events)
	}
	if events[0].Event != "accepted" {
		t.Fatalf("first event %q, want accepted", events[0].Event)
	}
	last := events[len(events)-1]
	if last.Event != "result" && last.Event != "error" {
		t.Fatalf("last event %q, want result or error", last.Event)
	}
	return last
}

func TestServerFlowJob(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	resp := postJob(t, ts.Client(), ts.URL, `{"kind":"flow","duration":"3s","seed":7}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	last := terminal(t, readEvents(t, resp.Body))
	if last.Event != "result" || last.Status != "ok" {
		t.Fatalf("terminal %+v", last)
	}
	if last.Flow == nil || last.Flow.Metrics == nil {
		t.Fatalf("flow result missing metrics: %+v", last)
	}
	if last.Version != buildinfo.Version() {
		t.Fatalf("result version %q, want %q", last.Version, buildinfo.Version())
	}
	if last.Cached {
		t.Fatalf("uncached flow reported cached")
	}
}

func TestServerValidationRejects(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	for _, spec := range []string{
		`{"kind":"nope"}`,
		`{}`,
		`{"kind":"flow","operator":"mars-telecom"}`,
		`{"kind":"flow","faults":"not a schedule"}`,
		`{"kind":"experiment"}`,
		`{"kind":"experiment","run":["unknown-exp"]}`,
		`{"kind":"campaign","run":["table1"]}`,
		`{"kind":"campaign","operator":"china-mobile"}`,
		`{"kind":"flow","duration":"45m"}`, // beyond MaxFlowDuration default
		`{"kind":"flow","unknown_field":1}`,
		`{"kind":"flow","timeout_ms":-5}`,
	} {
		resp := postJob(t, ts.Client(), ts.URL, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400", spec, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestServerRejectsHostileFaultSpecs sends flow jobs whose fault schedules
// carry NaN parameters or an unbounded storm count: admission must reject
// them with 400 before any worker expands the schedule.
func TestServerRejectsHostileFaultSpecs(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	for _, faults := range []string{
		"ackburst@0s+1s p=NaN",
		"ratecollapse@0s+1s xNaN",
		"storm@0s+1s n=2000000000",
	} {
		spec := fmt.Sprintf(`{"kind":"flow","duration":"10s","faults":%q}`, faults)
		resp := postJob(t, ts.Client(), ts.URL, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("faults %q: status %d, want 400", faults, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestServerQueueFullRetryAfter holds the pool full deterministically via a
// blocked job and asserts the 429 carries Retry-After.
func TestServerQueueFullRetryAfter(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	// Block the single worker from inside the pool, then fill the queue slot.
	if err := srv.pl.submit(func() { <-release }); err != nil {
		t.Fatalf("block worker: %v", err)
	}
	for srv.pl.active() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := srv.pl.submit(func() {}); err != nil {
		t.Fatalf("fill queue: %v", err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() { close(release); srv.Drain() }()

	resp := postJob(t, ts.Client(), ts.URL, `{"kind":"flow","duration":"1s"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want 1", ra)
	}
}

// TestServerDrain verifies graceful shutdown: once draining, new jobs get
// 503 while a job admitted before the drain runs to completion and its
// stream delivers the full result. The worker is held on a channel so the
// admitted job is deterministically in flight when the drain begins.
func TestServerDrain(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hold the single worker so the HTTP job below stays queued (in flight,
	// not yet running) across the drain transition.
	release := make(chan struct{})
	if err := srv.pl.submit(func() { <-release }); err != nil {
		t.Fatalf("block worker: %v", err)
	}
	for srv.pl.active() == 0 {
		time.Sleep(time.Millisecond)
	}

	type outcome struct {
		status int
		last   Event
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"kind":"flow","duration":"6s","seed":42}`))
		if err != nil {
			done <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		var last Event
		dec := json.NewDecoder(resp.Body)
		for {
			var e Event
			if err := dec.Decode(&e); err == io.EOF {
				break
			} else if err != nil {
				done <- outcome{err: err}
				return
			}
			last = e
		}
		done <- outcome{status: resp.StatusCode, last: last}
	}()
	// Wait until the job is queued before draining.
	for srv.pl.depth() == 0 {
		time.Sleep(time.Millisecond)
	}
	srv.StartDrain()

	resp := postJob(t, ts.Client(), ts.URL, `{"kind":"flow","duration":"1s"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}

	var hz healthzBody
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	hresp.Body.Close()
	if hz.Status != "draining" {
		t.Fatalf("healthz status %q, want draining", hz.Status)
	}

	// Release the worker: the queued job must still run to completion.
	close(release)
	out := <-done
	if out.err != nil {
		t.Fatalf("in-flight job: %v", out.err)
	}
	if out.status != http.StatusOK {
		t.Fatalf("in-flight job status %d", out.status)
	}
	if out.last.Event != "result" || out.last.Status != "ok" || out.last.Flow == nil {
		t.Fatalf("in-flight job terminal %+v", out.last)
	}
	srv.Drain() // must return promptly with nothing left running
	if n := srv.pl.active(); n != 0 {
		t.Fatalf("%d jobs active after drain", n)
	}
}

// TestServerDeadlinePartialResults submits an experiment job with a 1 ms
// deadline: the schedule cancels, unstarted tasks are skipped, and the
// terminal event still arrives with status partial plus a report naming the
// skipped tasks.
func TestServerDeadlinePartialResults(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	resp := postJob(t, ts.Client(), ts.URL,
		`{"kind":"experiment","run":["table1","scalars"],"quick":true,"timeout_ms":1}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	last := terminal(t, readEvents(t, resp.Body))
	if last.Event != "result" {
		t.Fatalf("terminal event %q: %+v", last.Event, last)
	}
	if last.Status != "partial" {
		t.Fatalf("status %q, want partial", last.Status)
	}
	if last.Summary == nil || last.Summary.Skipped+last.Summary.Failed == 0 {
		t.Fatalf("summary %+v, want skipped or failed tasks", last.Summary)
	}
	if last.Report == nil {
		t.Fatalf("no report on partial result")
	}
	var skipped int
	for _, tr := range last.Report.Tasks {
		if tr.Status == "skipped" || tr.Status == "failed" {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatalf("report tasks %+v, want skipped entries", last.Report.Tasks)
	}
}

func TestServerHealthzAndExperiments(t *testing.T) {
	srv := New(Config{Workers: 3, QueueDepth: 5})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var hz healthzBody
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || hz.Workers != 3 || hz.QueueCapacity != 5 {
		t.Fatalf("healthz %+v", hz)
	}
	if hz.Version != buildinfo.Version() {
		t.Fatalf("healthz version %q, want %q", hz.Version, buildinfo.Version())
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatalf("experiments: %v", err)
	}
	var exps struct {
		Experiments []string `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&exps); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if len(exps.Experiments) == 0 {
		t.Fatalf("empty catalog")
	}
	seen := map[string]bool{}
	for _, name := range exps.Experiments {
		seen[name] = true
	}
	if !seen["table1"] || !seen["faults"] {
		t.Fatalf("catalog %v missing table1/faults", exps.Experiments)
	}
}

func TestServerMetricsExposition(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	// Run one flow job so the lifecycle counters move.
	resp := postJob(t, ts.Client(), ts.URL, `{"kind":"flow","duration":"2s"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	body := string(raw)
	for _, want := range []string{
		"hsrserved_workers 1",
		"hsrserved_queue_capacity 1",
		"hsrserved_jobs_submitted_total 1",
		"hsrserved_jobs_accepted_total 1",
		"hsrserved_jobs_completed_total 1",
		"hsrserved_draining 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestPoolSubmitAfterDrain(t *testing.T) {
	p := newPool(2, 2)
	ran := make(chan struct{})
	if err := p.submit(func() { close(ran) }); err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-ran
	p.drain()
	if err := p.submit(func() {}); err != ErrDraining {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
	p.drain() // second drain is a no-op
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"45s"`), &d); err != nil || time.Duration(d) != 45*time.Second {
		t.Fatalf("string form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`1000000000`), &d); err != nil || time.Duration(d) != time.Second {
		t.Fatalf("number form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &d); err == nil {
		t.Fatalf("bad duration accepted")
	}
	raw, err := json.Marshal(Duration(90 * time.Second))
	if err != nil || string(raw) != `"1m30s"` {
		t.Fatalf("marshal: %s %v", raw, err)
	}
}

// TestServerCapsFlowsPerRow checks the default per-row cap: every job kind
// that takes the Table I override is rejected with 400 at 1001 flows per
// row, and a job at exactly 1000 is admitted (a one-flow unit of it runs).
func TestServerCapsFlowsPerRow(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	unit := func(perRow int) string {
		return fmt.Sprintf(`{"kind":"unit","unit":{"seed":1,"duration":"2s","flows_per_row":%d,"start":0,"end":1}}`, perRow)
	}
	for _, spec := range []string{
		`{"kind":"campaign","quick":true,"flows_per_row":1001}`,
		`{"kind":"experiment","run":["table1"],"quick":true,"flows_per_row":1001}`,
		unit(1001),
	} {
		resp := postJob(t, ts.Client(), ts.URL, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400", spec, resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp := postJob(t, ts.Client(), ts.URL, unit(1000))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("1000 flows per row: status %d, want 200", resp.StatusCode)
	}
	if last := terminal(t, readEvents(t, resp.Body)); last.Event != "result" || last.Status != "ok" {
		t.Fatalf("1000 flows per row: terminal %+v", last)
	}
}
