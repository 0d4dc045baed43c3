package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// replayCheck runs the test-only batch oracle and a streaming replay of the
// same trace — both a fresh Incremental and Analyze, which replays through a
// pooled one — and fails unless they produce identical metrics or, for
// invalid traces, identical error strings.
func replayCheck(t *testing.T, ft *trace.FlowTrace) {
	t.Helper()
	want, wantErr := batchAnalyze(ft)
	inc := NewIncremental(ft.Meta)
	for _, ev := range ft.Events {
		inc.Record(ev)
	}
	got, gotErr := inc.Finish()
	sameResult(t, want, wantErr, got, gotErr)
	got, gotErr = Analyze(ft)
	sameResult(t, want, wantErr, got, gotErr)
}

// sameResult fails unless the batch oracle's result and a streaming result
// are identical metrics or identical error text.
func sameResult(t *testing.T, want *FlowMetrics, wantErr error, got *FlowMetrics, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("error mismatch: batch %v, streaming %v", wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("error text mismatch:\nbatch:     %v\nstreaming: %v", wantErr, gotErr)
		}
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("metrics mismatch:\nbatch:     %+v\nstreaming: %+v", want, got)
	}
}

func TestIncrementalMatchesBatchHandTrace(t *testing.T) {
	replayCheck(t, handTrace())
}

func TestIncrementalMatchesBatchEmptyTrace(t *testing.T) {
	replayCheck(t, &trace.FlowTrace{
		Meta: trace.FlowMeta{ID: "empty", MSS: 1400, Duration: time.Second},
	})
}

// TestIncrementalMatchesBatchInvalidTraces feeds both analyzers traces that
// decode fine but violate event invariants; the streaming analyzer must
// latch exactly the error the batch oracle's up-front Validate reports.
func TestIncrementalMatchesBatchInvalidTraces(t *testing.T) {
	meta := trace.FlowMeta{ID: "bad", MSS: 1000, Duration: time.Second}
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	cases := map[string][]trace.Event{
		"time going backwards": {
			{At: ms(10), Type: trace.EvDataSend, Seq: 0, Ack: -1, TransmitNo: 1},
			{At: ms(5), Type: trace.EvDataRecv, Seq: 0, Ack: -1, TransmitNo: 1},
		},
		"negative seq": {
			{At: ms(0), Type: trace.EvDataSend, Seq: -3, Ack: -1, TransmitNo: 1},
		},
		"zero transmit number": {
			{At: ms(0), Type: trace.EvDataSend, Seq: 0, Ack: -1, TransmitNo: 0},
		},
		"negative ack": {
			{At: ms(0), Type: trace.EvAckSend, Seq: -1, Ack: -2},
		},
		"negative timeout seq": {
			{At: ms(0), Type: trace.EvDataSend, Seq: 0, Ack: -1, TransmitNo: 1, Cwnd: 1},
			{At: ms(30), Type: trace.EvDataRecv, Seq: 0, Ack: -1, TransmitNo: 1},
			{At: ms(400), Type: trace.EvTimeout, Seq: -1, Ack: -1},
		},
		"invalid mid-stream": {
			{At: ms(0), Type: trace.EvDataSend, Seq: 0, Ack: -1, TransmitNo: 1, Cwnd: 2},
			{At: ms(30), Type: trace.EvDataRecv, Seq: 0, Ack: -1, TransmitNo: 1},
			{At: ms(31), Type: trace.EvAckSend, Seq: -1, Ack: 1},
			{At: ms(40), Type: trace.EvDataSend, Seq: -1, Ack: -1, TransmitNo: 1},
			{At: ms(50), Type: trace.EvDataSend, Seq: 1, Ack: -1, TransmitNo: 1, Cwnd: 2},
		},
	}
	for name, evs := range cases {
		t.Run(name, func(t *testing.T) {
			replayCheck(t, &trace.FlowTrace{Meta: meta, Events: evs})
		})
	}
}

// TestIncrementalMatchesBatchCorpus replays every checked-in hostile input
// under internal/trace/testdata/corpus through both analyzers. Most corpus
// files are rejected by the decoders before any analyzer runs — the test
// then asserts both decode paths agree — and any that do decode must
// analyze identically.
func TestIncrementalMatchesBatchCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "trace", "testdata", "corpus", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("internal/trace/testdata/corpus is empty")
	}
	for _, p := range paths {
		p := p
		t.Run(filepath.Base(p), func(t *testing.T) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			var ft *trace.FlowTrace
			var decErr error
			if strings.HasSuffix(p, ".jsonl") {
				ft, decErr = trace.ReadJSONL(bytes.NewReader(data))
			} else {
				ft, decErr = trace.ReadBinary(bytes.NewReader(data))
			}
			if decErr != nil {
				return // hostile at the codec layer; nothing to analyze
			}
			replayCheck(t, ft)
		})
	}
}

// TestIncrementalPoolReuse checks that a pooled analyzer recycled across
// flows is indistinguishable from a fresh one — in particular that the
// delivered table, whose grow path exposes uncleared capacity, carries no
// state over (a resurrected delivered[seq] would misclassify a genuine
// timeout in the next flow as spurious).
func TestIncrementalPoolReuse(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	// First flow delivers seq 4; second flow times out on an undelivered
	// seq 4. Stale delivery state would flip the second flow's phase to
	// spurious.
	second := &trace.FlowTrace{
		Meta: trace.FlowMeta{ID: "second", MSS: 1000, Duration: time.Second},
		Events: []trace.Event{
			{At: ms(0), Type: trace.EvDataSend, Seq: 4, Ack: -1, TransmitNo: 1, Cwnd: 1},
			{At: ms(0), Type: trace.EvDataDrop, Seq: 4, Ack: -1, TransmitNo: 1},
			{At: ms(400), Type: trace.EvTimeout, Seq: 4, Ack: -1},
			{At: ms(400), Type: trace.EvDataSend, Seq: 4, Ack: -1, TransmitNo: 2, Cwnd: 1},
			{At: ms(430), Type: trace.EvDataRecv, Seq: 4, Ack: -1, TransmitNo: 2},
			{At: ms(431), Type: trace.EvAckSend, Seq: -1, Ack: 5},
			{At: ms(461), Type: trace.EvAckRecv, Seq: -1, Ack: 5},
			{At: ms(461), Type: trace.EvRecovered, Seq: -1, Ack: 5},
		},
	}
	want, err := batchAnalyze(second)
	if err != nil {
		t.Fatal(err)
	}
	if want.SpuriousTimeouts != 0 {
		t.Fatalf("batch SpuriousTimeouts = %d, want 0 (test premise)", want.SpuriousTimeouts)
	}

	first := handTrace() // delivers seq 4, among others
	a := AcquireIncremental(first.Meta)
	for _, ev := range first.Events {
		a.Record(ev)
	}
	if _, err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	a.Release()

	b := AcquireIncremental(second.Meta)
	for _, ev := range second.Events {
		b.Record(ev)
	}
	got, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reused analyzer diverged from batch:\nbatch:  %+v\nreused: %+v", want, got)
	}
}

// TestSeqTableGrowth pins the shared growth policy of the per-segment
// tables: geometric doubling (amortized O(1) appends) with the slack capped
// at seqTableSlackCap so one sparse high sequence number cannot balloon the
// arena.
func TestSeqTableGrowth(t *testing.T) {
	var s []time.Duration
	s = growNeg(s, 0)
	for i := int64(0); i < 100; i++ {
		s = growNeg(s, i)
	}
	for i, v := range s {
		if v != -1 {
			t.Fatalf("growNeg: s[%d] = %v, want -1", i, v)
		}
	}
	// Doubling from a non-trivial base.
	s = growNeg(s, 150)
	if cap(s) < 200 {
		t.Errorf("growNeg: cap %d after doubling from >=100, want >= 200", cap(s))
	}
	// A sparse jump may not over-allocate past need + slack.
	const sparse = 5_000_000
	s = growNeg(s, sparse)
	if len(s) != sparse+1 {
		t.Fatalf("growNeg: len %d, want %d", len(s), sparse+1)
	}
	if got, max := cap(s), sparse+1+seqTableSlackCap; got > max {
		t.Errorf("growNeg: cap %d after sparse jump, want <= %d", got, max)
	}
	if s[sparse] != -1 || s[sparse-1] != -1 {
		t.Errorf("growNeg: sparse tail not initialized to -1")
	}

	var bl []bool
	bl = growBool(bl, 100)
	bl[100] = true
	bl = growBool(bl, sparse)
	if len(bl) != sparse+1 {
		t.Fatalf("growBool: len %d, want %d", len(bl), sparse+1)
	}
	if got, max := cap(bl), sparse+1+seqTableSlackCap; got > max {
		t.Errorf("growBool: cap %d after sparse jump, want <= %d", got, max)
	}
	if !bl[100] {
		t.Errorf("growBool: lost existing element during growth")
	}
}

// TestIncrementalSparseHighSequence feeds a trace whose sequence numbers
// jump to five million after four events. No causal capture or excerpt
// looks like that, so trace validation rejects the jump: the batch oracle,
// Analyze and a fresh Incremental must all report the same error, and the
// streaming analyzer must not have grown its delivered table for it.
func TestIncrementalSparseHighSequence(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	const high = 5_000_000
	ft := &trace.FlowTrace{
		Meta: trace.FlowMeta{ID: "sparse", MSS: 1000, Duration: 2 * time.Second},
		Events: []trace.Event{
			{At: ms(0), Type: trace.EvDataSend, Seq: 0, Ack: -1, TransmitNo: 1, Cwnd: 1},
			{At: ms(30), Type: trace.EvDataRecv, Seq: 0, Ack: -1, TransmitNo: 1},
			{At: ms(31), Type: trace.EvAckSend, Seq: -1, Ack: 1},
			{At: ms(61), Type: trace.EvAckRecv, Seq: -1, Ack: 1},
			{At: ms(100), Type: trace.EvDataSend, Seq: high, Ack: -1, TransmitNo: 1, Cwnd: 2},
			{At: ms(130), Type: trace.EvDataRecv, Seq: high, Ack: -1, TransmitNo: 1},
			{At: ms(131), Type: trace.EvAckSend, Seq: -1, Ack: high + 1},
			{At: ms(161), Type: trace.EvAckRecv, Seq: -1, Ack: high + 1},
		},
	}
	replayCheck(t, ft)

	inc := NewIncremental(ft.Meta)
	for _, ev := range ft.Events {
		inc.Record(ev)
	}
	_, err := inc.Finish()
	if err == nil || !strings.Contains(err.Error(), "event 4 (data-send) has seq 5000000") {
		t.Fatalf("Finish error = %v, want the seq jump at event 4 rejected", err)
	}
	if got := cap(inc.delivered); got > 1 {
		t.Errorf("delivered table cap %d after a rejected jump, want <= 1", got)
	}
}

// TestAnalyzeRejectsSeqFarBeyondIndex is the out-of-memory regression: a
// one-event trace whose data arrival claims sequence number 2^36 used to
// make the analyzer allocate a 2^36-entry table. Trace validation now
// rejects it, and Analyze and Incremental must report the same error
// without allocating any per-sequence table.
func TestAnalyzeRejectsSeqFarBeyondIndex(t *testing.T) {
	ft := &trace.FlowTrace{
		Meta: trace.FlowMeta{ID: "huge-seq", MSS: 1000, Duration: time.Second},
		Events: []trace.Event{
			{At: time.Millisecond, Type: trace.EvDataRecv, Seq: 1 << 36, Ack: -1, TransmitNo: 1},
		},
	}
	_, aerr := Analyze(ft)
	if aerr == nil {
		t.Fatal("Analyze accepted a data arrival at seq 2^36 as event 0")
	}
	inc := NewIncremental(ft.Meta)
	inc.Record(ft.Events[0])
	_, ierr := inc.Finish()
	if ierr == nil || ierr.Error() != aerr.Error() {
		t.Fatalf("Incremental error %v, Analyze error %v: want identical", ierr, aerr)
	}
	if cap(inc.delivered) != 0 {
		t.Errorf("delivered table cap %d, want 0: the rejected event reached the analyzer", cap(inc.delivered))
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Analyze(ft); err == nil {
			t.Fatal("accepted")
		}
	})
	// The error itself costs a handful of small allocations; a per-sequence
	// table for 2^36 segments would not fit in memory at all.
	if allocs > 16 {
		t.Errorf("rejecting the trace took %v allocs, want a handful", allocs)
	}
}
