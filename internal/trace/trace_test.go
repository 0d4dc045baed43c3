package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleTrace() *FlowTrace {
	return &FlowTrace{
		Meta: FlowMeta{
			ID:          "flow-001",
			Operator:    "China Mobile",
			Tech:        "LTE",
			Scenario:    "hsr",
			Seed:        42,
			MSS:         1448,
			DelayedAckB: 2,
			WindowLimit: 64,
			Duration:    90 * time.Second,
		},
		Events: []Event{
			{At: 0, Type: EvDataSend, Seq: 0, Ack: -1, TransmitNo: 1, Cwnd: 1},
			{At: 30 * time.Millisecond, Type: EvDataRecv, Seq: 0, Ack: -1, TransmitNo: 1},
			{At: 31 * time.Millisecond, Type: EvAckSend, Seq: -1, Ack: 1},
			{At: 60 * time.Millisecond, Type: EvAckRecv, Seq: -1, Ack: 1},
			{At: 61 * time.Millisecond, Type: EvDataSend, Seq: 1, Ack: -1, TransmitNo: 1, Cwnd: 2},
			{At: 80 * time.Millisecond, Type: EvDataDrop, Seq: 1, Ack: -1, TransmitNo: 1},
			{At: 1 * time.Second, Type: EvTimeout, Seq: 1, Ack: -1, Backoff: 1},
			{At: 1 * time.Second, Type: EvDataSend, Seq: 1, Ack: -1, TransmitNo: 2, Cwnd: 1},
			{At: 2 * time.Second, Type: EvRecovered, Seq: -1, Ack: -1},
		},
	}
}

func TestEventTypeString(t *testing.T) {
	names := map[EventType]string{
		EvDataSend: "data-send", EvDataRecv: "data-recv", EvDataDrop: "data-drop",
		EvAckSend: "ack-send", EvAckRecv: "ack-recv", EvAckDrop: "ack-drop",
		EvTimeout: "timeout", EvFastRetx: "fast-retx", EvRecovered: "recovered",
	}
	for et, want := range names {
		if got := et.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", et, got, want)
		}
	}
	if got := EventType(99).String(); got != "EventType(99)" {
		t.Errorf("unknown EventType.String = %q", got)
	}
}

func TestRecorderImplementations(t *testing.T) {
	var ft FlowTrace
	ft.Record(Event{Type: EvDataSend, Seq: 0, TransmitNo: 1})
	if len(ft.Events) != 1 {
		t.Fatal("FlowTrace.Record did not append")
	}
	Nop{}.Record(Event{}) // must not panic

	var a, b FlowTrace
	tee := Tee{&a, &b}
	tee.Record(Event{Type: EvAckSend, Ack: 5})
	if len(a.Events) != 1 || len(b.Events) != 1 {
		t.Error("Tee did not fan out")
	}
}

func TestValidate(t *testing.T) {
	ft := sampleTrace()
	if err := ft.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}

	bad := sampleTrace()
	bad.Events[3].At = 0 // time goes backwards
	if err := bad.Validate(); err == nil {
		t.Error("out-of-order trace accepted")
	}

	bad = sampleTrace()
	bad.Events[0].Seq = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative data seq accepted")
	}

	bad = sampleTrace()
	bad.Events[0].TransmitNo = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero TransmitNo accepted")
	}

	bad = sampleTrace()
	bad.Events[2].Ack = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative ack accepted")
	}

	bad = sampleTrace()
	bad.Events[6].Seq = -1 // the timeout
	if err := bad.Validate(); err == nil {
		t.Error("negative timeout seq accepted")
	}
}

// TestValidateBoundsSeqLead pins the sequence-number bound: a data event may
// run at most maxSeqLead past its index, which admits excerpts that start
// mid-flow and rejects a one-event trace claiming segment 2^36 before any
// analyzer could size a table for it.
func TestValidateBoundsSeqLead(t *testing.T) {
	for _, typ := range []EventType{EvDataSend, EvDataRecv, EvDataDrop} {
		ft := sampleTrace()
		ft.Events[4].Type, ft.Events[4].Seq = typ, 4+maxSeqLead
		if err := ft.Validate(); err != nil {
			t.Errorf("%v at seq index+maxSeqLead rejected: %v", typ, err)
		}
		ft.Events[4].Seq++
		if err := ft.Validate(); err == nil {
			t.Errorf("%v at seq index+maxSeqLead+1 accepted", typ)
		}
	}
	huge := &FlowTrace{Events: []Event{{At: time.Millisecond, Type: EvDataRecv, Seq: 1 << 36, Ack: -1, TransmitNo: 1}}}
	err := huge.Validate()
	if err == nil || err.Error() != "trace: event 0 (data-recv) has seq 68719476736, more than 1048576 past its index" {
		t.Errorf("seq 2^36 as event 0: err = %v", err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	ft := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ft); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(got.Meta, ft.Meta) {
		t.Errorf("meta round-trip mismatch:\n got %+v\nwant %+v", got.Meta, ft.Meta)
	}
	if !reflect.DeepEqual(got.Events, ft.Events) {
		t.Errorf("events round-trip mismatch:\n got %+v\nwant %+v", got.Events, ft.Events)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	ft := sampleTrace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, ft); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if !reflect.DeepEqual(got.Meta, ft.Meta) {
		t.Errorf("meta round-trip mismatch:\n got %+v\nwant %+v", got.Meta, ft.Meta)
	}
	if len(got.Events) != len(ft.Events) {
		t.Fatalf("event count = %d, want %d", len(got.Events), len(ft.Events))
	}
	for i := range ft.Events {
		if got.Events[i] != ft.Events[i] {
			t.Errorf("event %d mismatch:\n got %+v\nwant %+v", i, got.Events[i], ft.Events[i])
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("this is not a trace file")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	// Valid magic, bad version.
	var buf bytes.Buffer
	buf.WriteString("HSRT")
	buf.Write([]byte{0xFF, 0xFF})
	if _, err := ReadBinary(&buf); err == nil {
		t.Error("bad version accepted")
	}
}

func TestBinaryRejectsTruncation(t *testing.T) {
	ft := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ft); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 10, len(full) / 2, len(full) - 1} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated input at %d bytes accepted", cut)
		}
	}
}

func TestJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"meta":{}}` + "\n" + `{"at": "bogus"}` + "\n")); err == nil {
		t.Error("bad event line accepted")
	}
}

func TestEmptyTraceRoundTrips(t *testing.T) {
	ft := &FlowTrace{Meta: FlowMeta{ID: "empty"}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ft); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if got.Meta.ID != "empty" || len(got.Events) != 0 {
		t.Errorf("empty trace round trip = %+v", got)
	}
}

// Property: any randomly generated trace survives both codecs bit-exactly.
func TestCodecRoundTripProperty(t *testing.T) {
	gen := func(r *rand.Rand) *FlowTrace {
		n := r.Intn(50)
		ft := &FlowTrace{Meta: FlowMeta{
			ID:       "prop",
			Operator: "Op",
			Seed:     r.Int63(),
			MSS:      1448,
			Duration: time.Duration(r.Int63n(int64(time.Hour))),
		}}
		at := time.Duration(0)
		for i := 0; i < n; i++ {
			at += time.Duration(r.Int63n(int64(time.Second)))
			ft.Events = append(ft.Events, Event{
				At:         at,
				Type:       EventType(r.Intn(9) + 1),
				Seq:        r.Int63n(1 << 30),
				Ack:        r.Int63n(1 << 30),
				TransmitNo: r.Intn(10) + 1,
				Cwnd:       r.Float64() * 100,
				Backoff:    r.Intn(7),
			})
		}
		return ft
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ft := gen(r)
		var bin, jsonl bytes.Buffer
		if err := WriteBinary(&bin, ft); err != nil {
			return false
		}
		fromBin, err := ReadBinary(&bin)
		if err != nil {
			return false
		}
		if err := WriteJSONL(&jsonl, ft); err != nil {
			return false
		}
		fromJSON, err := ReadJSONL(&jsonl)
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(fromBin.Meta, ft.Meta) || !reflect.DeepEqual(fromJSON.Meta, ft.Meta) {
			return false
		}
		if len(fromBin.Events) != len(ft.Events) || len(fromJSON.Events) != len(ft.Events) {
			return false
		}
		for i := range ft.Events {
			if fromBin.Events[i] != ft.Events[i] || fromJSON.Events[i] != ft.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
