package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// defectiveWorker serves jobs through a real worker but rewrites the
// terminal line of its first unit job with defect, which edits the decoded
// unit result in place.
func defectiveWorker(t *testing.T, defect func(unit map[string]any)) *httptest.Server {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 8})
	h := srv.Handler()
	var injected atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs" || !injected.CompareAndSwap(false, true) {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		w.WriteHeader(rec.Code)
		for _, line := range bytes.SplitAfter(rec.Body.Bytes(), []byte("\n")) {
			var e map[string]any
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.UseNumber()
			if dec.Decode(&e) == nil && e["event"] == "result" {
				defect(e["unit"].(map[string]any))
				line, _ = json.Marshal(e)
				line = append(line, '\n')
			}
			w.Write(line)
		}
	}))
	t.Cleanup(func() { ts.Close(); srv.Drain() })
	return ts
}

// firstFlow returns the first flow object of a decoded unit result.
func firstFlow(unit map[string]any) map[string]any {
	return unit["flows"].([]any)[0].(map[string]any)
}

// firstTCP returns the TCP telemetry section of a decoded unit result's
// first flow.
func firstTCP(unit map[string]any) map[string]any {
	tel := firstFlow(unit)["flow"].(map[string]any)["telemetry"].(map[string]any)
	return tel["tcp"].(map[string]any)
}

// TestCoordinatorRetriesMalformedUnitResults has a worker ship one defective
// unit result per case. Each defect must fail that attempt on arrival — and
// take the retry path — instead of failing the campaign at assembly or
// handing experiment code a nil result; the campaign still matches
// single-node.
func TestCoordinatorRetriesMalformedUnitResults(t *testing.T) {
	defects := map[string]func(unit map[string]any){
		"wrong index": func(unit map[string]any) {
			firstFlow(unit)["index"] = 99
		},
		"missing metrics": func(unit map[string]any) {
			firstFlow(unit)["flow"].(map[string]any)["metrics"] = nil
		},
		"missing telemetry": func(unit map[string]any) {
			delete(firstFlow(unit)["flow"].(map[string]any), "telemetry")
		},
		"undecodable flow": func(unit map[string]any) {
			firstFlow(unit)["flow"].(map[string]any)["stats"] = "garbage"
		},
		"mismatched histogram": func(unit map[string]any) {
			h := firstTCP(unit)["cwnd_hist"].(map[string]any)
			h["counts"] = h["counts"].([]any)[1:]
		},
		"negative histogram count": func(unit map[string]any) {
			firstTCP(unit)["backoff_hist"].(map[string]any)["counts"].([]any)[0] = -1
		},
		"missing flow": func(unit map[string]any) {
			unit["flows"] = unit["flows"].([]any)[1:]
		},
	}
	for name, defect := range defects {
		t.Run(name, func(t *testing.T) {
			w := defectiveWorker(t, defect)
			c, err := New(Config{
				Workers:           []string{w.URL},
				UnitFlows:         2,
				UnitTimeout:       30 * time.Second,
				BackoffBase:       10 * time.Millisecond,
				HeartbeatInterval: 100 * time.Millisecond,
				Seed:              5,
			})
			if err != nil {
				t.Fatalf("new coordinator: %v", err)
			}
			defer c.Close()
			assertIdentical(t, c, quickCampaign(19))
			if f := c.Counters(); f.Retries == 0 || f.UnitsLocal != 0 {
				t.Fatalf("defective result not retried remotely: %+v", f)
			}
		})
	}
}

// FuzzUnitStream feeds hostile NDJSON streams to the coordinator's unit
// result reader: it must return an error or a well-formed unit (one flow
// per index of the range, in order, each with metrics and telemetry that
// passes FlowState.Validate), never panic. The checked-in corpus holds a
// valid stream and one stream per defect the reader rejects.
func FuzzUnitStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte, start, count uint8) {
		if len(stream) > 512 {
			t.Skip("inputs over 512 bytes spend the fuzz time in the minimizer")
		}
		lo, hi := int(start), int(start)+int(count)
		flows, _, err := readUnitResult(bytes.NewReader(stream), lo, hi)
		if err != nil {
			if flows != nil {
				t.Fatalf("flows returned with error %v", err)
			}
			return
		}
		if len(flows) != hi-lo {
			t.Fatalf("%d flows for range [%d, %d)", len(flows), lo, hi)
		}
		for i, f := range flows {
			if f.Index != lo+i || f.Flow.Metrics == nil || f.Flow.Telemetry == nil {
				t.Fatalf("malformed flow %d accepted: %+v", i, f)
			}
			if err := f.Flow.Telemetry.Validate(); err != nil {
				t.Fatalf("flow %d accepted with invalid telemetry: %v", i, err)
			}
		}
	})
}
