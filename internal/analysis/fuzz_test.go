package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

// fuzzMaxInput bounds one fuzz input. The fuzzer's input minimizer is
// quadratic in input length, so larger inputs stall exploration without
// adding coverage.
const fuzzMaxInput = 512

// recordSize is the length of one synthetic event record: type, a uint16
// little-endian time step in milliseconds, seq and ack as signed bytes
// (-1 is "not applicable", as in simulator traces), transmit number in the
// low nibble and RTO backoff in the high nibble, and cwnd.
const recordSize = 7

// encodeRecords is the inverse of the synthetic branch of fuzzTrace for
// events whose fields fit the record format; it turns a hand-written trace
// into a compact fuzz seed.
func encodeRecords(evs []trace.Event) []byte {
	var out []byte
	var prev time.Duration
	for _, ev := range evs {
		dt := (ev.At - prev) / time.Millisecond
		prev = ev.At
		out = append(out, byte(ev.Type-1), byte(dt), byte(dt>>8), byte(int8(ev.Seq)), byte(int8(ev.Ack)),
			byte(ev.TransmitNo)|byte(ev.Backoff<<4), byte(ev.Cwnd))
	}
	return out
}

// fuzzTrace turns fuzz bytes into a trace: a trace file when the bytes
// decode as one (binary first, then JSON Lines), otherwise a stream of
// synthetic event records under the hand trace's metadata.
func fuzzTrace(data []byte) *trace.FlowTrace {
	if ft, err := trace.ReadBinary(bytes.NewReader(data)); err == nil {
		return ft
	}
	if ft, err := trace.ReadJSONL(bytes.NewReader(data)); err == nil {
		return ft
	}
	ft := &trace.FlowTrace{Meta: handTrace().Meta}
	var at time.Duration
	for ; len(data) >= recordSize; data = data[recordSize:] {
		b := data[:recordSize]
		at += time.Duration(uint16(b[1])|uint16(b[2])<<8) * time.Millisecond
		ft.Events = append(ft.Events, trace.Event{
			At:         at,
			Type:       trace.EventType(1 + b[0]%9),
			Seq:        int64(int8(b[3])),
			Ack:        int64(int8(b[4])),
			TransmitNo: int(b[5] & 0x0f),
			Backoff:    int(b[5] >> 4),
			Cwnd:       float64(b[6]),
		})
	}
	return ft
}

// causalize rewrites a trace in place into a causally ordered stream, the
// precondition under which streaming and batch analysis must agree: every
// data send carries the next transmit number of its segment (so no
// (seq, transmit#) pair is sent twice), and every data arrival or drop
// names a transmission already sent earlier in the stream. Arrivals and
// drops of never-sent segments are removed. Timestamps, types and every
// other field are left alone, so ordering and field errors still reach the
// analyzers.
func causalize(ft *trace.FlowTrace) {
	sent := map[int64]int{} // highest transmit number sent per segment
	out := ft.Events[:0]
	for _, ev := range ft.Events {
		switch ev.Type {
		case trace.EvDataSend:
			if ev.Seq >= 0 && ev.TransmitNo >= 1 {
				sent[ev.Seq]++
				ev.TransmitNo = sent[ev.Seq]
			}
		case trace.EvDataRecv, trace.EvDataDrop:
			if ev.Seq >= 0 && ev.TransmitNo >= 1 {
				n := sent[ev.Seq]
				if n == 0 {
					continue
				}
				if ev.TransmitNo > n {
					ev.TransmitNo = n
				}
			}
		}
		out = append(out, ev)
	}
	ft.Events = out
}

// FuzzAnalyzeMatchesBatch is the differential target for the streaming
// analyzer: causally ordered event streams built from the fuzz input must
// give reflect.DeepEqual metrics, or identical error text, from Analyze and
// from the test-only batch oracle. It is seeded with the hand trace, as
// synthetic records and as a binary trace file, and with the hostile trace
// corpus. Run in CI's fuzz smoke step.
func FuzzAnalyzeMatchesBatch(f *testing.F) {
	hand := handTrace()
	f.Add(encodeRecords(hand.Events))
	short := &trace.FlowTrace{Meta: hand.Meta, Events: hand.Events[:12]}
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, short); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	paths, err := filepath.Glob(filepath.Join("..", "trace", "testdata", "corpus", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxInput {
			t.Skip()
		}
		ft := fuzzTrace(data)
		causalize(ft)
		want, wantErr := batchAnalyze(ft)
		got, gotErr := Analyze(ft)
		sameResult(t, want, wantErr, got, gotErr)
	})
}

// TestFuzzRecordsRoundTrip pins the seed encoding: the hand trace survives
// encodeRecords and the synthetic branch of fuzzTrace unchanged, so the
// fuzz seed really is the hand trace.
func TestFuzzRecordsRoundTrip(t *testing.T) {
	hand := handTrace()
	got := fuzzTrace(encodeRecords(hand.Events))
	if !reflect.DeepEqual(got, hand) {
		t.Fatalf("round trip changed the hand trace:\ngot:  %+v\nwant: %+v", got, hand)
	}
}
