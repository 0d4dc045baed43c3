package dist

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/telemetry"
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

// editFirstFlow decodes the first flow's payload, lets edit change it and
// ships the re-encoded payload in its place.
func editFirstFlow(unit map[string]any, edit func(f *dataset.CachedFlow)) {
	flow := firstFlow(unit)
	raw, err := base64.StdEncoding.DecodeString(flow["flow"].(string))
	if err != nil {
		panic(err)
	}
	f, err := dataset.DecodeFlowPayload(raw)
	if err != nil {
		panic(err)
	}
	edit(&f)
	if raw, err = f.MarshalBinary(); err != nil {
		panic(err)
	}
	flow["flow"] = base64.StdEncoding.EncodeToString(raw)
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
			editFirstFlow(unit, func(f *dataset.CachedFlow) { f.Metrics = nil })
		},
		"missing telemetry": func(unit map[string]any) {
			editFirstFlow(unit, func(f *dataset.CachedFlow) { f.Telemetry = nil })
		},
		"undecodable flow": func(unit map[string]any) {
			firstFlow(unit)["flow"] = base64.StdEncoding.EncodeToString([]byte(`{"stats":"garbage"}`))
		},
		"mismatched histogram": func(unit map[string]any) {
			editFirstFlow(unit, func(f *dataset.CachedFlow) {
				h := &f.Telemetry.TCP.CwndHist
				h.Counts = h.Counts[1:]
			})
		},
		"negative histogram count": func(unit map[string]any) {
			editFirstFlow(unit, func(f *dataset.CachedFlow) { f.Telemetry.TCP.BackoffHist.Counts[0] = -1 })
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
// passes FlowState.Validate), never panic. The seeds added here carry
// binary flow payloads in base64; the checked-in corpus holds streams of
// the older JSON flow objects, which must all be rejected.
func FuzzUnitStream(f *testing.F) {
	state := telemetry.NewFlow().State()
	for _, flow := range []dataset.CachedFlow{
		{Metrics: &analysis.FlowMetrics{}, Telemetry: &state},
		{Metrics: &analysis.FlowMetrics{}},
	} {
		payload, err := flow.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range [][]byte{payload, append(payload, 0)} {
			line := `{"event":"result","unit":{"flows":[{"index":3,"flow":"` + base64.StdEncoding.EncodeToString(p) + `"}]}}` + "\n"
			f.Add([]byte(line), uint8(3), uint8(1))
		}
	}
	f.Add([]byte(`{"event":"result","unit":{"flows":[{"index":0,"flow":"AAE$"}]}}`), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, stream []byte, start, count uint8) {
		// The smallest accepted line (one minimal flow) is ~530 bytes.
		if len(stream) > 768 {
			t.Skip("inputs over 768 bytes spend the fuzz time in the minimizer")
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
