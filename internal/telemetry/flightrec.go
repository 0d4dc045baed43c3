package telemetry

import (
	"repro/internal/trace"
)

// FlightRecorder is an opt-in bounded ring of per-flow state-transition
// records: congestion-control phase changes (timeout-recovery entry via
// EvTimeout/EvFastRetx, recovery exit — the return to slow start — via
// EvRecovered, with the RTO backoff exponent riding on the timeout events)
// and loss episodes (EvDataDrop, EvAckDrop — an ACK-burst-loss episode shows
// up as a run of consecutive ack-drops). It implements trace.Recorder, so
// it tees off the same event stream the full packet trace records, keeps
// only the last capacity matching records, and never allocates after
// construction — the ring is safe to leave attached to multi-minute flows.
//
// Dump the ring with Trace and write it through the existing trace codecs;
// the resulting JSONL is a regular (sparse) FlowTrace that traceanalyze can
// read back.
type FlightRecorder struct {
	ring    []trace.Event
	next    int
	full    bool
	matched int64
}

// NewFlightRecorder returns a recorder retaining the last capacity
// state-transition records. It panics on a non-positive capacity.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		panic("telemetry: NewFlightRecorder requires a positive capacity")
	}
	return &FlightRecorder{ring: make([]trace.Event, capacity)}
}

// transition reports whether t is a state-transition or loss-episode event.
func transition(t trace.EventType) bool {
	switch t {
	case trace.EvTimeout, trace.EvFastRetx, trace.EvRecovered,
		trace.EvDataDrop, trace.EvAckDrop:
		return true
	}
	return false
}

// Record implements trace.Recorder. It is allocation-free.
func (r *FlightRecorder) Record(ev trace.Event) {
	if !transition(ev.Type) {
		return
	}
	r.matched++
	r.ring[r.next] = ev
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
}

// Len returns how many records the ring currently retains.
func (r *FlightRecorder) Len() int {
	if r.full {
		return len(r.ring)
	}
	return r.next
}

// Overwritten returns how many matching records have been pushed out of the
// ring by newer ones.
func (r *FlightRecorder) Overwritten() int64 {
	return r.matched - int64(r.Len())
}

// Events returns the retained records in chronological order (a copy; the
// ring keeps recording).
func (r *FlightRecorder) Events() []trace.Event {
	out := make([]trace.Event, 0, r.Len())
	if r.full {
		out = append(out, r.ring[r.next:]...)
	}
	return append(out, r.ring[:r.next]...)
}

// Trace packages the retained records as a FlowTrace under the given
// metadata, ready for trace.WriteJSONL / trace.WriteBinary.
func (r *FlightRecorder) Trace(meta trace.FlowMeta) *trace.FlowTrace {
	return &trace.FlowTrace{Meta: meta, Events: r.Events()}
}

// Reset clears the ring for reuse on another flow.
func (r *FlightRecorder) Reset() {
	r.next = 0
	r.full = false
	r.matched = 0
}

var _ trace.Recorder = (*FlightRecorder)(nil)
