// Package trace defines the packet-event records produced by the simulated
// TCP endpoints and consumed by the analyzer — the equivalent of the paper's
// two-sided wireshark/shark captures. A FlowTrace carries flow metadata plus
// a time-ordered event list; codecs serialize traces as JSON Lines and as a
// compact binary format.
package trace

import (
	"fmt"
	"time"
)

// EventType enumerates the packet-level events recorded during a flow.
type EventType int

// Event types. Send/Recv events are what a real capture would contain;
// Drop events are ground truth from the emulated link (a luxury the paper's
// authors inferred from two-sided captures — our analyzer uses the same
// two-sided inference and the drops only for test assertions). Timeout and
// FastRetx mark sender congestion-control transitions.
const (
	EvDataSend  EventType = iota + 1 // sender transmitted a data segment
	EvDataRecv                       // receiver got a data segment
	EvDataDrop                       // channel dropped a data segment
	EvAckSend                        // receiver emitted an ACK
	EvAckRecv                        // sender got an ACK
	EvAckDrop                        // channel dropped an ACK
	EvTimeout                        // retransmission timer expired at the sender
	EvFastRetx                       // triple-duplicate-ACK fast retransmit
	EvRecovered                      // sender left the timeout-recovery phase (slow start begins)
)

// String implements fmt.Stringer.
func (e EventType) String() string {
	switch e {
	case EvDataSend:
		return "data-send"
	case EvDataRecv:
		return "data-recv"
	case EvDataDrop:
		return "data-drop"
	case EvAckSend:
		return "ack-send"
	case EvAckRecv:
		return "ack-recv"
	case EvAckDrop:
		return "ack-drop"
	case EvTimeout:
		return "timeout"
	case EvFastRetx:
		return "fast-retx"
	case EvRecovered:
		return "recovered"
	default:
		return fmt.Sprintf("EventType(%d)", int(e))
	}
}

// Event is one packet-level occurrence in a flow.
type Event struct {
	At         time.Duration `json:"at"`
	Type       EventType     `json:"type"`
	Seq        int64         `json:"seq"`            // data segment index (0-based); -1 when not applicable
	Ack        int64         `json:"ack"`            // cumulative ACK: next expected segment; -1 when not applicable
	TransmitNo int           `json:"txno,omitempty"` // 1 = original transmission, 2+ = retransmission
	Cwnd       float64       `json:"cwnd,omitempty"` // sender congestion window (packets) at the event
	Backoff    int           `json:"backoff,omitempty"`
}

// FlowMeta describes one captured flow.
type FlowMeta struct {
	ID          string        `json:"id"`
	Operator    string        `json:"operator"`
	Tech        string        `json:"tech"`
	Scenario    string        `json:"scenario"` // "hsr" or "stationary"
	Seed        int64         `json:"seed"`
	MSS         int           `json:"mss"`
	DelayedAckB int           `json:"b"`  // data packets acknowledged per ACK
	WindowLimit int           `json:"wm"` // receiver advertised window, packets
	Duration    time.Duration `json:"duration"`
}

// FlowTrace is a complete capture of one flow.
type FlowTrace struct {
	Meta   FlowMeta `json:"meta"`
	Events []Event  `json:"-"`
}

// Record implements Recorder by appending to the event list.
func (f *FlowTrace) Record(ev Event) {
	f.Events = append(f.Events, ev)
}

// Grow reserves capacity for at least n further events. Materializing
// callers that can estimate the event count from the flow length use it to
// avoid repeated append doublings over multi-megabyte event lists; capacity
// never affects the recorded contents.
func (f *FlowTrace) Grow(n int) {
	if n <= cap(f.Events)-len(f.Events) {
		return
	}
	grown := make([]Event, len(f.Events), len(f.Events)+n)
	copy(grown, f.Events)
	f.Events = grown
}

// Recorder receives packet events as the simulation produces them.
type Recorder interface {
	Record(Event)
}

// Nop is a Recorder that discards all events, for runs where only endpoint
// counters matter (e.g. benchmarks of raw simulation speed).
type Nop struct{}

// Record implements Recorder.
func (Nop) Record(Event) {}

// Tee fans events out to multiple recorders.
type Tee []Recorder

// Record implements Recorder.
func (t Tee) Record(ev Event) {
	for _, r := range t {
		r.Record(ev)
	}
}

var (
	_ Recorder = (*FlowTrace)(nil)
	_ Recorder = Nop{}
	_ Recorder = Tee(nil)
)

// Validate performs structural checks on a trace: events must be in
// nondecreasing time order and sequence numbers must be sane.
func (f *FlowTrace) Validate() error {
	var prev time.Duration
	for i, ev := range f.Events {
		if err := ValidateEvent(i, ev, prev); err != nil {
			return err
		}
		prev = ev.At
	}
	return nil
}

// maxSeqLead bounds how far a data event's sequence number may run ahead of
// its position in the trace. A whole capture never needs any lead: segment k
// is first sent after segments 0..k-1, so its events sit at index k or
// later. Excerpts that start mid-flow, such as flight-recorder dumps, do
// need one; 1<<20 segments is over 25 minutes of the fastest profile's
// line rate. The bound keeps a hostile trace from making an analyzer's
// per-sequence tables larger than the trace itself plus maxSeqLead entries.
const maxSeqLead = 1 << 20

// ValidateEvent checks one event against the structural rules Validate
// enforces: i is the event's position in the stream and prev the timestamp
// of the event before it (zero for the first). Streaming consumers apply the
// same checks incrementally that Validate applies to a materialized trace,
// so both paths reject a malformed stream with identical errors.
func ValidateEvent(i int, ev Event, prev time.Duration) error {
	if ev.At < prev {
		return fmt.Errorf("trace: event %d at %v precedes previous event at %v", i, ev.At, prev)
	}
	switch ev.Type {
	case EvDataSend, EvDataRecv, EvDataDrop:
		if ev.Seq < 0 {
			return fmt.Errorf("trace: event %d (%v) has negative seq", i, ev.Type)
		}
		if ev.TransmitNo < 1 {
			return fmt.Errorf("trace: event %d (%v) has TransmitNo %d < 1", i, ev.Type, ev.TransmitNo)
		}
		if ev.Seq > int64(i)+maxSeqLead {
			return fmt.Errorf("trace: event %d (%v) has seq %d, more than %d past its index", i, ev.Type, ev.Seq, maxSeqLead)
		}
	case EvTimeout:
		// The timed-out segment indexes the analyzer's arrival table.
		if ev.Seq < 0 {
			return fmt.Errorf("trace: event %d (%v) has negative seq", i, ev.Type)
		}
	case EvAckSend, EvAckRecv, EvAckDrop:
		if ev.Ack < 0 {
			return fmt.Errorf("trace: event %d (%v) has negative ack", i, ev.Type)
		}
	}
	return nil
}
