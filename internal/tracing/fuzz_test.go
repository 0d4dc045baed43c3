package tracing

import (
	"bytes"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes through the path a worker's span
// batch takes into a coordinator's trace: ReadTrace parses it, Trace.Add
// stitches it next to the coordinator's own unit and attempt spans, and
// Validate checks the stitched set. None may panic. A batch with an empty,
// duplicate or colliding ID, a parent that does not resolve, or a parent
// cycle must fail Validate, and a parsed batch must come back unchanged
// through WriteTrace and ReadTrace. The checked-in corpus holds a
// well-formed worker batch and one hostile batch per defect.
func FuzzReadTrace(f *testing.F) {
	coord := []SpanRecord{
		{TraceID: "t", ID: "c-unit", Node: "c", Kind: "unit", Name: "unit[0,1)", StartNS: 0, EndNS: 100},
		{TraceID: "t", ID: "c-attempt", Parent: "c-unit", Node: "c", Kind: "attempt", Name: "attempt 1", StartNS: 10, EndNS: 90},
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 512 {
			t.Skip("inputs over 512 bytes spend the fuzz time in the minimizer")
		}
		batch, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			return
		}
		tr := New("t")
		tr.Add(coord...)
		tr.Add(batch...)
		stitched := tr.Spans()
		if defect := structuralDefect(stitched); defect != "" && Validate(stitched) == nil {
			t.Fatalf("stitched batch with %s passed Validate", defect)
		}

		var once, twice bytes.Buffer
		if err := WriteTrace(&once, batch); err != nil {
			t.Fatalf("WriteTrace of a parsed batch: %v", err)
		}
		back, err := ReadTrace(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("ReadTrace of WriteTrace output: %v", err)
		}
		if err := WriteTrace(&twice, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("batch changed through WriteTrace and ReadTrace:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
	})
}

// structuralDefect is the test's own statement of the ID and parent rules
// Validate enforces: it names the first defect of spans, or returns "".
func structuralDefect(spans []SpanRecord) string {
	byID := make(map[string]SpanRecord, len(spans))
	for _, s := range spans {
		if s.ID == "" {
			return "an empty ID"
		}
		if _, dup := byID[s.ID]; dup {
			return "duplicate ID " + s.ID
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		// An acyclic chain reaches a root within len(spans) steps.
		for steps := 0; s.Parent != ""; steps++ {
			p, ok := byID[s.Parent]
			if !ok {
				return "dangling parent " + s.Parent
			}
			if steps == len(spans) {
				return "a parent cycle through " + s.Parent
			}
			s = p
		}
	}
	return ""
}
