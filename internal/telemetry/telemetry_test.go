package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestDistMergeMatchesDirectAdds(t *testing.T) {
	var a, b, direct Dist
	for i := 0; i < 100; i++ {
		x := float64(i%17) * 1.5
		if i < 40 {
			a.Add(x)
		} else {
			b.Add(x)
		}
		direct.Add(x)
	}
	a.Merge(&b)
	if a.N() != direct.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), direct.N())
	}
	if math.Abs(a.Mean()-direct.Mean()) > 1e-9 {
		t.Errorf("merged mean = %v, want %v", a.Mean(), direct.Mean())
	}
	if a.Max() != direct.Max() {
		t.Errorf("merged max = %v, want %v", a.Max(), direct.Max())
	}
}

func TestDistJSONEmptyAndSingle(t *testing.T) {
	var d Dist
	got, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"n":0}` {
		t.Errorf("empty Dist JSON = %s", got)
	}
	// A single sample must not leak NaN (std of n=1) into the JSON.
	d.Add(3)
	got, err = json.Marshal(d)
	if err != nil {
		t.Fatalf("single-sample Dist marshal: %v", err)
	}
	if strings.Contains(string(got), "NaN") {
		t.Errorf("single-sample Dist JSON contains NaN: %s", got)
	}
	var parsed struct {
		N    int     `json:"n"`
		Mean float64 `json:"mean"`
		Std  float64 `json:"std"`
	}
	if err := json.Unmarshal(got, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.N != 1 || parsed.Mean != 3 || parsed.Std != 0 {
		t.Errorf("single-sample Dist JSON = %s", got)
	}
}

func TestHistBucketsAndMerge(t *testing.T) {
	h := NewHist(1, 2, 4)
	for _, x := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Add(x)
	}
	want := []int64{2, 1, 1, 1} // <=1, <=2, <=4, overflow
	if !reflect.DeepEqual(h.Counts, want) {
		t.Fatalf("Counts = %v, want %v", h.Counts, want)
	}
	var empty Hist
	empty.Add(42) // silently discarded
	if empty.Total() != 0 {
		t.Errorf("zero-value Hist bucketed a sample")
	}
	empty.Merge(&h) // adopts shape
	if !reflect.DeepEqual(empty.Counts, want) {
		t.Errorf("adopting merge Counts = %v, want %v", empty.Counts, want)
	}
	empty.Merge(&h)
	if empty.Total() != 2*h.Total() {
		t.Errorf("second merge Total = %d, want %d", empty.Total(), 2*h.Total())
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched-shape merge did not panic")
		}
	}()
	bad := NewHist(1, 2)
	bad.Counts[0] = 1
	empty.Merge(&bad)
}

func TestKernelMergeAndDerived(t *testing.T) {
	a := Kernel{Events: 10, Scheduled: 12, MaxPending: 5, Batches: 4,
		MaxBatch: 6, TimerStops: 1, TimerReschedules: 3, VirtualNS: 100, BudgetEvents: 40}
	b := Kernel{Events: 20, Scheduled: 21, MaxPending: 9, Batches: 2,
		MaxBatch: 3, TimerStops: 2, TimerReschedules: 4, VirtualNS: 50, BudgetEvents: 60}
	a.Merge(&b)
	if a.Events != 30 || a.Scheduled != 33 || a.MaxPending != 9 {
		t.Fatalf("merged Kernel = %+v", a)
	}
	if a.Batches != 6 || a.MaxBatch != 6 {
		t.Fatalf("merged batch counters = %+v", a)
	}
	if a.TimerStops != 3 || a.TimerReschedules != 7 || a.VirtualNS != 150 || a.BudgetEvents != 100 {
		t.Fatalf("merged timer and budget counters = %+v", a)
	}
	if got := a.BudgetHeadroom(); got != 0.7 {
		t.Errorf("BudgetHeadroom = %v, want 0.7", got)
	}
	if (&Kernel{}).BudgetHeadroom() != 1 {
		t.Error("unbudgeted BudgetHeadroom not 1")
	}
	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"budget_headroom", "events", "batches", "max_batch"} {
		if !strings.Contains(string(blob), key) {
			t.Errorf("Kernel JSON missing %q: %s", key, blob)
		}
	}
}

func TestCampaignAddFlow(t *testing.T) {
	c := NewCampaign()
	f1 := NewFlow()
	f1.Kernel.Events = 5
	f1.TCP.Flows = 1
	f1.TCP.Cwnd.Add(4)
	f1.Net.Data.Offered = 7
	f1.Faults.Schedules = 1
	f1.WallNS = 100
	f2 := NewFlow()
	f2.Kernel.Events = 3
	f2.TCP.Flows = 1
	f2.TCP.Cwnd.Add(8)
	c.AddFlow(f1)
	c.AddFlow(f2)
	n, k, tcp, net, faults := c.Counters()
	if n != 2 || k.Events != 8 || tcp.Flows != 2 || net.Data.Offered != 7 || faults.Schedules != 1 {
		t.Fatalf("Counters = (%d, %+v, ..., %+v, %+v)", n, k, net, faults)
	}
	if tcp.Cwnd.N() != 2 || tcp.Cwnd.Mean() != 6 {
		t.Errorf("merged Cwnd = n=%d mean=%v", tcp.Cwnd.N(), tcp.Cwnd.Mean())
	}
}

func TestFlightRecorderRingAndTrace(t *testing.T) {
	r := NewFlightRecorder(3)
	// Non-transition events are filtered out.
	r.Record(trace.Event{Type: trace.EvDataSend, At: time.Second})
	if r.Len() != 0 {
		t.Fatalf("non-transition event retained: Len=%d", r.Len())
	}
	for i := 0; i < 5; i++ {
		r.Record(trace.Event{Type: trace.EvTimeout, At: time.Duration(i) * time.Second, Seq: int64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Overwritten() != 2 {
		t.Fatalf("Overwritten = %d, want 2", r.Overwritten())
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := int64(i + 2); ev.Seq != want {
			t.Errorf("event %d Seq = %d, want %d (chronological order)", i, ev.Seq, want)
		}
	}

	// The dump must round-trip through the standard JSONL codec.
	ft := r.Trace(trace.FlowMeta{ID: "fr-test", Seed: 7})
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, ft); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.ID != "fr-test" || len(back.Events) != 3 {
		t.Fatalf("roundtrip = %q with %d events", back.Meta.ID, len(back.Events))
	}

	r.Reset()
	if r.Len() != 0 || r.Overwritten() != 0 {
		t.Errorf("Reset left Len=%d Overwritten=%d", r.Len(), r.Overwritten())
	}

	r.Record(trace.Event{Type: trace.EvDataSend})
	if r.Len() != 0 {
		t.Errorf("recorder kept a data-send event, which is no state transition")
	}
}

func TestFlightRecorderRecordDoesNotAllocate(t *testing.T) {
	r := NewFlightRecorder(64)
	ev := trace.Event{Type: trace.EvTimeout, Seq: 1}
	allocs := testing.AllocsPerRun(1000, func() { r.Record(ev) })
	if allocs != 0 {
		t.Fatalf("Record allocates %v allocs/op, want 0", allocs)
	}
}

func TestReportRoundTrip(t *testing.T) {
	camp := NewCampaign()
	f := NewFlow()
	f.Kernel.Events = 11
	f.TCP.Flows = 1
	camp.AddFlow(f)
	rep := &Report{
		Tool: "hsrbench", Version: "test", Seed: 42, Campaign: camp,
		Tasks: []TaskReport{
			{Name: "campaigns", Status: "ok", WallMS: 12.5},
			{Name: "fig3", Status: "skipped", Error: "dependency failed"},
		},
		Resources: Resources{WallMS: 100, Mallocs: 5},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tool != "hsrbench" || back.Seed != 42 || len(back.Tasks) != 2 {
		t.Fatalf("roundtrip report = %+v", back)
	}
	if back.Campaign == nil || back.Campaign.Kernel.Events != 11 {
		t.Fatalf("roundtrip campaign = %+v", back.Campaign)
	}
	if back.Tasks[1].Status != "skipped" || back.Tasks[1].Error == "" {
		t.Errorf("roundtrip task = %+v", back.Tasks[1])
	}
}
