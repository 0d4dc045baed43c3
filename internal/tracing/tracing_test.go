package tracing

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestNilSafety pins the zero-overhead-when-off contract: every operation on
// a nil *Trace and nil *Span must be a safe no-op.
func TestNilSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Node() != "" || tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil trace accessors not zero-valued")
	}
	tr.Add(SpanRecord{ID: "x"})
	sp := tr.StartSpan("", "flow", "f")
	if sp != nil {
		t.Fatal("nil trace must return a nil span")
	}
	if sp.ID() != "" {
		t.Fatal("nil span ID must be empty")
	}
	sp.SetAttr("k", "v")
	sp.SetVirtual(0, 1)
	sp.End()
	sp.End() // double End on nil is fine too
}

func TestSpanRecording(t *testing.T) {
	tr := New("trace-1")
	if tr.ID() != "trace-1" {
		t.Fatalf("trace ID %q", tr.ID())
	}
	if tr.Node() == "" {
		t.Fatal("node nonce empty")
	}
	root := tr.StartSpan("", "job", "job-1")
	child := tr.StartSpan(root.ID(), "flow", "flow-a")
	child.SetAttr("index", "0")
	child.SetVirtual(0, 5e9)
	child.End()
	child.SetAttr("late", "dropped") // after End: must not land
	root.SetAttr("status", "ok")
	root.End()
	root.End() // idempotent

	spans := tr.Spans()
	if len(spans) != 2 || tr.Len() != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// Completion order: the child ended first.
	c, r := spans[0], spans[1]
	if c.Kind != "flow" || r.Kind != "job" {
		t.Fatalf("completion order wrong: %s, %s", c.Kind, r.Kind)
	}
	if c.Parent != r.ID {
		t.Fatalf("child parent %q, want %q", c.Parent, r.ID)
	}
	if c.TraceID != "trace-1" || r.TraceID != "trace-1" {
		t.Fatal("trace ID not stamped on spans")
	}
	if !strings.HasPrefix(c.ID, tr.Node()+"-") {
		t.Fatalf("span ID %q not node-prefixed", c.ID)
	}
	if c.Attrs["index"] != "0" {
		t.Fatalf("attrs %v", c.Attrs)
	}
	if _, ok := c.Attrs["late"]; ok {
		t.Fatal("attribute set after End was recorded")
	}
	if !c.Virtual || c.VStartNS != 0 || c.VEndNS != int64(5e9) {
		t.Fatalf("virtual interval %v [%d, %d]", c.Virtual, c.VStartNS, c.VEndNS)
	}
	if c.StartNS > c.EndNS || r.StartNS > r.EndNS {
		t.Fatal("wall interval inverted")
	}
}

func TestStartSpanAt(t *testing.T) {
	tr := New("t")
	start := time.Now().Add(-time.Second)
	sp := tr.StartSpanAt("", "queue-wait", "queue-wait", start)
	sp.End()
	got := tr.Spans()[0]
	if got.StartNS != start.UnixNano() {
		t.Fatalf("start %d, want %d", got.StartNS, start.UnixNano())
	}
	if got.EndNS-got.StartNS < int64(time.Second) {
		t.Fatalf("span shorter than its backdated start: %dns", got.EndNS-got.StartNS)
	}
}

// TestNodeNonceUnique pins the cross-node stitching property: two collectors
// for the same trace ID produce non-colliding span IDs.
func TestNodeNonceUnique(t *testing.T) {
	a, b := New("same"), New("same")
	if a.Node() == b.Node() {
		t.Skip("4-byte nonces collided (1 in 4 billion); rerun")
	}
	sa := a.StartSpan("", "job", "x")
	sb := b.StartSpan("", "job", "x")
	sa.End()
	sb.End()
	if sa.ID() == sb.ID() {
		t.Fatalf("span IDs collided across collectors: %s", sa.ID())
	}
}

// TestWriteReadRoundTrip pins losslessness and the dual format properties:
// the output is one valid JSON document, line-oriented, and ReadTrace
// returns the native spans exactly.
func TestWriteReadRoundTrip(t *testing.T) {
	tr := New("rt")
	a := tr.StartSpan("", "unit", "unit[0,4)")
	a.SetAttr("flows", "4")
	b := tr.StartSpan(a.ID(), "flow", "flow-x")
	b.SetVirtual(0, 2e9)
	b.End()
	a.End()
	in := tr.Spans()

	var buf bytes.Buffer
	if err := WriteTrace(&buf, in); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("trace is not one valid JSON document:\n%s", buf.String())
	}
	// Line-oriented: one event per line between the brackets.
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if lines[0] != "[" || lines[len(lines)-1] != "]" {
		t.Fatalf("not bracketed one-event-per-line: first %q last %q", lines[0], lines[len(lines)-1])
	}
	for _, ln := range lines[1 : len(lines)-1] {
		var ev map[string]any
		if err := json.Unmarshal([]byte(strings.TrimSuffix(ln, ",")), &ev); err != nil {
			t.Fatalf("line not a JSON event: %q: %v", ln, err)
		}
	}

	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip lossy:\n%+v\nvs\n%+v", in, out)
	}
}

func TestWriteTraceVirtualTimeline(t *testing.T) {
	tr := New("v")
	sp := tr.StartSpan("", "flow", "f")
	sp.SetVirtual(0, 3e9)
	sp.End()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr.Spans()); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	s := buf.String()
	if !strings.Contains(s, "virtual time") {
		t.Fatalf("no virtual-time process metadata:\n%s", s)
	}
	if !strings.Contains(s, "f (virtual)") {
		t.Fatalf("no virtual duplicate event:\n%s", s)
	}
	// The virtual duplicate must not be double-counted by ReadTrace.
	spans, err := ReadTrace(strings.NewReader(s))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(spans) != 1 {
		t.Fatalf("ReadTrace returned %d spans, want 1 (virtual duplicate skipped)", len(spans))
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader(`{"not":"an array"}`)); err == nil {
		t.Fatal("non-array input must error")
	}
	if _, err := ReadTrace(strings.NewReader(`[{"ph":"X","args":{"span":`)); err == nil {
		t.Fatal("truncated input must error")
	}
}

func TestValidate(t *testing.T) {
	tr := New("ok")
	p := tr.StartSpan("", "job", "j")
	c := tr.StartSpan(p.ID(), "flow", "f")
	c.SetVirtual(0, 1e9)
	c.End()
	p.End()
	if err := Validate(tr.Spans()); err != nil {
		t.Fatalf("well-formed trace rejected: %v", err)
	}

	bad := []struct {
		name  string
		spans []SpanRecord
		want  string
	}{
		{"missing ID", []SpanRecord{{Kind: "job", Name: "x", EndNS: 1}}, "has no ID"},
		{"duplicate ID", []SpanRecord{
			{ID: "a", EndNS: 1}, {ID: "a", EndNS: 1},
		}, "duplicate span ID"},
		{"dangling parent", []SpanRecord{
			{ID: "a", Parent: "ghost", EndNS: 1},
		}, "parent ghost not in trace"},
		{"self parent", []SpanRecord{
			{ID: "a", Parent: "a", EndNS: 1},
		}, "parent chain cycles"},
		{"parent cycle", []SpanRecord{
			{ID: "r", EndNS: 1}, {ID: "a", Parent: "b", EndNS: 1},
			{ID: "b", Parent: "c", EndNS: 1}, {ID: "c", Parent: "a", EndNS: 1},
		}, "parent chain cycles"},
		{"inverted wall", []SpanRecord{
			{ID: "a", StartNS: 10, EndNS: 5},
		}, "wall interval inverted"},
		{"inverted virtual", []SpanRecord{
			{ID: "a", EndNS: 1, Virtual: true, VStartNS: 9, VEndNS: 3},
		}, "virtual interval inverted"},
		{"child escapes parent", []SpanRecord{
			{ID: "p", Node: "n", StartNS: 0, EndNS: int64(time.Millisecond)},
			{ID: "c", Node: "n", Parent: "p", Kind: "flow",
				StartNS: 0, EndNS: int64(time.Second)},
		}, "escapes parent"},
		{"virtual escapes parent", []SpanRecord{
			{ID: "p", Node: "n", StartNS: 0, EndNS: 100, Virtual: true, VStartNS: 0, VEndNS: 10},
			{ID: "c", Node: "n", Parent: "p", Kind: "flow",
				StartNS: 0, EndNS: 50, Virtual: true, VStartNS: 0, VEndNS: 99},
		}, "virtual interval"},
	}
	for _, tc := range bad {
		err := Validate(tc.spans)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Exemptions: a losing attempt span outlives its unit on the same node,
	// and a cross-node child is never interval-checked against its parent.
	exempt := []SpanRecord{
		{ID: "u", Node: "n", Kind: "unit", StartNS: 0, EndNS: 100},
		{ID: "a2", Node: "n", Kind: "attempt", Parent: "u", StartNS: 50, EndNS: 900},
		{ID: "w", Node: "other", Kind: "job", Parent: "a2", StartNS: 1e15, EndNS: 2e15},
	}
	if err := Validate(exempt); err != nil {
		t.Fatalf("exempt shapes rejected: %v", err)
	}
}

func TestByStart(t *testing.T) {
	spans := []SpanRecord{
		{ID: "b", StartNS: 5},
		{ID: "a", StartNS: 5},
		{ID: "c", StartNS: 1},
	}
	ByStart(spans)
	if spans[0].ID != "c" || spans[1].ID != "a" || spans[2].ID != "b" {
		t.Fatalf("order %s %s %s", spans[0].ID, spans[1].ID, spans[2].ID)
	}
}
