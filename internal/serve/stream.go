package serve

import (
	"encoding/json"
	"io"
	"sync"

	"repro/internal/dataset"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// Event is one NDJSON line of a job's response stream. The first line is
// always "accepted"; "flows" and "task" lines report a campaign or
// experiment job's progress while it runs (a unit job sends none); exactly
// one terminal "result" or "error" line closes the stream.
type Event struct {
	// Event is the line type: accepted, flows, task, result, error.
	Event string `json:"event"`
	// JobID identifies the job on every line (assigned at admission).
	JobID string `json:"job_id,omitempty"`
	// Version is the server build (accepted + terminal lines).
	Version string `json:"version,omitempty"`
	// QueueDepth is the queue occupancy observed at admission.
	QueueDepth int64 `json:"queue_depth,omitempty"`

	// Flow progress (event=flows): Done of Total campaign flows finished.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`

	// Task progress (event=task): one DAG task completed.
	Task      string `json:"task,omitempty"`
	Status    string `json:"status,omitempty"` // ok, failed, skipped — and the terminal ok/partial/error
	Completed int    `json:"completed,omitempty"`

	// Terminal payload (event=result|error).
	Error string `json:"error,omitempty"`

	ElapsedMS float64             `json:"elapsed_ms,omitempty"`
	Summary   *Summary            `json:"summary,omitempty"`
	Report    *telemetry.Report   `json:"report,omitempty"`
	Outputs   []TaskOutput        `json:"outputs,omitempty"`
	Flow      *dataset.CachedFlow `json:"flow,omitempty"`
	// Cached reports that a flow job's result came from the shared cache or
	// a deduplicated concurrent computation.
	Cached bool `json:"cached,omitempty"`
	// Unit is a unit job's terminal payload: the executed flow range with
	// telemetry-complete per-flow results.
	Unit *UnitResult `json:"unit,omitempty"`
	// Spans is the job's recorded span batch, shipped on the terminal event
	// when the submitter sent a trace context (JobSpec.Trace) — the
	// coordinator stitches these under its own unit attempt spans.
	Spans []tracing.SpanRecord `json:"spans,omitempty"`
}

// UnitResult is the terminal payload of a unit job.
type UnitResult struct {
	// Start and End echo the executed plan range.
	Start int `json:"start"`
	End   int `json:"end"`
	// Flows holds one entry per plan index in [Start, End), in plan order.
	Flows []UnitFlow `json:"flows"`
	// CacheHits counts flows served from telemetry-complete cache entries
	// (or deduplicated against a concurrent identical computation).
	CacheHits int `json:"cache_hits,omitempty"`
}

// UnitFlow is one flow of a unit result (a dataset.FlowOutcome in wire
// form): its global plan index, its binary flow payload (a
// dataset.CachedFlow with metrics, endpoint stats and exact telemetry
// state, as the bytes a cache entry stores — a cached flow ships its
// verified entry payload unchanged, an uncached one the same bytes encoded
// once), and the host wall time the worker spent simulating it (0 for a
// cached flow). On the wire the payload is a base64 string, as
// encoding/json writes a []byte; a reader checks it with
// dataset.DecodeFlowPayload.
type UnitFlow struct {
	Index  int    `json:"index"`
	Flow   []byte `json:"flow"`
	Cached bool   `json:"cached,omitempty"`
	WallNS int64  `json:"wall_ns,omitempty"`
}

// Summary counts a scheduled job's task outcomes.
type Summary struct {
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Skipped   int `json:"skipped"`
}

// TaskOutput is one experiment's rendered section.
type TaskOutput struct {
	Name   string `json:"name"`
	Output string `json:"output"`
}

// WriteEvent writes e to w as one NDJSON line. A unit result's flow
// payloads are []byte, which the encoder writes as base64 strings without
// scanning them, so the plain encoder is the fast path too.
func WriteEvent(w io.Writer, e *Event) error {
	return json.NewEncoder(w).Encode(e)
}

// stream carries a job's events from the worker goroutine to the HTTP
// handler. Progress events are best-effort (dropped when the reader lags);
// terminal events always land while the client is reading — and once the
// handler declares the client gone (abort), every send becomes a no-op so
// the worker can never wedge behind a dead stream.
type stream struct {
	ch        chan Event
	aborted   chan struct{}
	abortOnce sync.Once
}

func newStream() *stream {
	// 256 buffered events absorb any full catalog run (19 experiments + the
	// shared tasks + per-campaign flow batches) without the worker blocking.
	return &stream{ch: make(chan Event, 256), aborted: make(chan struct{})}
}

// abort marks the client gone: emit stops blocking, tryEmit keeps dropping.
// Called by the HTTP handler after a failed or timed-out response write;
// safe to call more than once and concurrently with sends.
func (s *stream) abort() {
	s.abortOnce.Do(func() { close(s.aborted) })
}

// tryEmit sends a progress event, dropping it when the buffer is full.
func (s *stream) tryEmit(e Event) {
	select {
	case s.ch <- e:
	default:
	}
}

// emit sends an event that must not be lost (terminal lines). The buffer
// outsizes any event sequence that can precede a terminal line, so this
// never blocks in practice; the send is still on the buffered channel, not
// the client socket. If the buffer ever were full — a stalled client whose
// handler is stuck inside a response write can stop draining for up to one
// write deadline — the abort path unblocks the worker.
func (s *stream) emit(e Event) {
	select {
	case s.ch <- e:
	case <-s.aborted:
	}
}

// close ends the stream; the handler's range loop terminates.
func (s *stream) close() { close(s.ch) }
