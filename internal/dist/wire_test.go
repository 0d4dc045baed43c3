package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/serve"
)

// realFlow simulates one flow of a small campaign with telemetry and
// returns the payload bytes a cache entry stores, with those bytes decoded.
func realFlow(tb testing.TB, i int) (dataset.CachedFlow, []byte) {
	tb.Helper()
	plan, err := dataset.PlanCampaign(quickCampaign(11))
	if err != nil {
		tb.Fatalf("plan: %v", err)
	}
	ent, err := dataset.RunFlowFull(plan[i].Scenario)
	if err != nil {
		tb.Fatalf("flow %d: %v", i, err)
	}
	js, err := json.Marshal(ent)
	if err != nil {
		tb.Fatalf("encode flow %d: %v", i, err)
	}
	var dec dataset.CachedFlow
	if err := json.Unmarshal(js, &dec); err != nil {
		tb.Fatalf("decode flow %d: %v", i, err)
	}
	return dec, js
}

// unitStream writes the stream a worker sends for a unit job over
// [start, start+len(payloads)) through serve.WriteEvent: the accepted line,
// then the result line carrying the payloads verbatim.
func unitStream(tb testing.TB, w io.Writer, start int, payloads ...[]byte) {
	tb.Helper()
	u := &serve.UnitResult{Start: start, End: start + len(payloads), Flows: make([]serve.UnitFlow, len(payloads))}
	for i, p := range payloads {
		u.Flows[i] = serve.UnitFlow{Index: start + i, Flow: p, Cached: true}
	}
	u.CacheHits = len(payloads)
	for _, e := range []serve.Event{
		{Event: "accepted", JobID: "job-1", Version: "test"},
		{Event: "result", JobID: "job-1", Version: "test", Status: "ok", ElapsedMS: 1, Unit: u},
	} {
		if err := serve.WriteEvent(w, &e); err != nil {
			tb.Fatalf("write event: %v", err)
		}
	}
}

// assertFlows checks a decoded unit equals want flow for flow.
func assertFlows(t *testing.T, got []unitFlow, start int, want ...dataset.CachedFlow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d flows, want %d", len(got), len(want))
	}
	for i, f := range got {
		if f.Index != start+i || !f.Cached {
			t.Fatalf("flow %d: index %d cached %v", i, f.Index, f.Cached)
		}
		if !reflect.DeepEqual(f.Flow, want[i]) {
			t.Fatalf("flow %d decoded to a different CachedFlow", f.Index)
		}
	}
}

// TestReadUnitResultLongLine reads a 64-flow unit whose result line is far
// longer than the reader's initial buffer: the buffer grows to the line.
func TestReadUnitResultLongLine(t *testing.T) {
	ent, js := realFlow(t, 0)
	payloads := make([][]byte, 64)
	want := make([]dataset.CachedFlow, 64)
	for i := range payloads {
		payloads[i], want[i] = js, ent
	}
	var buf bytes.Buffer
	unitStream(t, &buf, 0, payloads...)
	if buf.Len() < 64*len(js) {
		t.Fatalf("stream is %d bytes, want over %d", buf.Len(), 64*len(js))
	}
	flows, _, err := readUnitResult(&buf, 0, 64)
	if err != nil {
		t.Fatalf("read %d-byte line: %v", 64*len(js), err)
	}
	assertFlows(t, flows, 0, want...)
}

// endlessLine yields a line that never ends: an open result line followed
// by spaces, generated on demand so the test holds none of it.
type endlessLine struct{ head []byte }

func (r *endlessLine) Read(p []byte) (int, error) {
	n := copy(p, r.head)
	r.head = r.head[n:]
	for i := n; i < len(p); i++ {
		p[i] = ' '
	}
	return len(p), nil
}

// TestReadUnitResultLineOverCap feeds a line longer than the reader's
// 64 MiB cap: it must come back as an error, not a panic or an endless
// read. The reader's own buffer still grows to the cap, hence the -short
// skip.
func TestReadUnitResultLineOverCap(t *testing.T) {
	if testing.Short() {
		t.Skip("the reader buffers 64 MiB before rejecting the line")
	}
	flows, _, err := readUnitResult(&endlessLine{head: []byte(`{"event":"result","unit":{"flows":[`)}, 0, 1)
	if !errors.Is(err, bufio.ErrTooLong) || flows != nil {
		t.Fatalf("over-cap line: flows %v, err %v; want bufio.ErrTooLong", flows, err)
	}
}

// TestReadUnitResultCallsIndependent reads two units back to back: the
// second read must leave the first call's decoded flows intact (nothing
// decoded aliases a reused read buffer).
func TestReadUnitResultCallsIndependent(t *testing.T) {
	a, ajs := realFlow(t, 0)
	b, bjs := realFlow(t, 1)
	var s1, s2 bytes.Buffer
	unitStream(t, &s1, 0, ajs, ajs)
	unitStream(t, &s2, 2, bjs, bjs)
	first, _, err := readUnitResult(&s1, 0, 2)
	if err != nil {
		t.Fatalf("first read: %v", err)
	}
	second, _, err := readUnitResult(&s2, 2, 4)
	if err != nil {
		t.Fatalf("second read: %v", err)
	}
	assertFlows(t, first, 0, a, a)
	assertFlows(t, second, 2, b, b)
}

// TestReadUnitResultWhitespacePayload ships payloads carrying insignificant
// whitespace — still valid JSON, so a cache entry could hold one — through
// the verbatim writer. Indented JSON spans several lines and is compacted
// to keep the stream line-framed; spaces and tabs alone are copied as they
// are. Either way the line decodes to the same CachedFlow.
func TestReadUnitResultWhitespacePayload(t *testing.T) {
	ent, js := realFlow(t, 0)
	indented, err := json.MarshalIndent(ent, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	spaced := append(append([]byte(" \t"), js...), " \r\t "...)
	for name, p := range map[string][]byte{"indented": indented, "spaced": spaced} {
		var buf bytes.Buffer
		unitStream(t, &buf, 3, p, js)
		if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 2 {
			t.Fatalf("%s: stream has %d lines, want 2", name, lines)
		}
		flows, _, err := readUnitResult(&buf, 3, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertFlows(t, flows, 3, ent, ent)
	}
}

// BenchmarkUnitWire is the unit-result wire in one loop: a 16-flow unit
// (one real telemetry-complete payload per flow) written through the
// worker's event writer, then read back and validated by the
// coordinator's reader.
func BenchmarkUnitWire(b *testing.B) {
	_, js := realFlow(b, 0)
	payloads := make([][]byte, 16)
	for i := range payloads {
		payloads[i] = js
	}
	var buf bytes.Buffer
	unitStream(b, &buf, 0, payloads...)
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		unitStream(b, &buf, 0, payloads...)
		if _, _, err := readUnitResult(&buf, 0, 16); err != nil {
			b.Fatal(err)
		}
	}
}
