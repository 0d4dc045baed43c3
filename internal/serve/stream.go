package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
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
// form): its global plan index, the full cache-entry payload (a
// dataset.CachedFlow with metrics, endpoint stats and exact telemetry state)
// as the encoded bytes a cache entry stores — a cached flow ships its
// verified entry bytes unchanged, an uncached one the same bytes encoded
// once — and the host wall time the worker spent simulating it (0 for a
// cached flow). WriteEvent copies Flow onto the wire verbatim, so it must
// already be valid JSON.
type UnitFlow struct {
	Index  int             `json:"index"`
	Flow   json.RawMessage `json:"flow"`
	Cached bool            `json:"cached,omitempty"`
	WallNS int64           `json:"wall_ns,omitempty"`
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

// WriteEvent writes e to w as one NDJSON line: the bytes
// json.NewEncoder(w).Encode(e) writes, except that a unit result's flow
// payloads are copied verbatim instead of being re-validated and compacted
// by the encoder. They need neither: a cached payload passed the cache's
// checksum and json.Valid on its way out, and a computed one is what
// json.Marshal just wrote, which is already compact. A payload holding a
// newline (insignificant whitespace an entry could carry) is compacted so
// it cannot split the line. The envelope goes through encoding/json, and
// the pieces go to w as they are built, so a buffered w never holds the
// whole line.
func WriteEvent(w io.Writer, e *Event) error {
	if e.Unit == nil {
		return json.NewEncoder(w).Encode(e)
	}
	// Unit and Spans are Event's last two fields: encode the rest, reopen
	// the object and append them in field order.
	env := *e
	env.Unit, env.Spans = nil, nil
	head, err := json.Marshal(&env)
	if err != nil {
		return err
	}
	var spans []byte
	if len(e.Spans) > 0 {
		if spans, err = json.Marshal(e.Spans); err != nil {
			return err
		}
	}
	lw := lineWriter{w: w}
	lw.write(head[:len(head)-1])
	u := e.Unit
	buf := make([]byte, 0, 64)
	buf = append(buf, `,"unit":{"start":`...)
	buf = strconv.AppendInt(buf, int64(u.Start), 10)
	buf = append(buf, `,"end":`...)
	buf = strconv.AppendInt(buf, int64(u.End), 10)
	buf = append(buf, `,"flows":`...)
	if u.Flows == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, f := range u.Flows {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"index":`...)
			buf = strconv.AppendInt(buf, int64(f.Index), 10)
			buf = append(buf, `,"flow":`...)
			lw.write(buf)
			buf = buf[:0]
			lw.payload(f.Flow)
			if f.Cached {
				buf = append(buf, `,"cached":true`...)
			}
			if f.WallNS != 0 {
				buf = append(buf, `,"wall_ns":`...)
				buf = strconv.AppendInt(buf, f.WallNS, 10)
			}
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	if u.CacheHits != 0 {
		buf = append(buf, `,"cache_hits":`...)
		buf = strconv.AppendInt(buf, int64(u.CacheHits), 10)
	}
	buf = append(buf, '}')
	if spans != nil {
		buf = append(buf, `,"spans":`...)
		lw.write(buf)
		buf = buf[:0]
		lw.write(spans)
	}
	lw.write(append(buf, "}\n"...))
	return lw.err
}

// lineWriter writes the pieces of one event line, keeping the first error.
type lineWriter struct {
	w   io.Writer
	err error
}

func (lw *lineWriter) write(p []byte) {
	if lw.err == nil {
		_, lw.err = lw.w.Write(p)
	}
}

// payload writes one flow's encoded bytes: null when empty, like
// json.RawMessage; compacted when a newline would split the line.
func (lw *lineWriter) payload(p []byte) {
	switch {
	case len(p) == 0:
		lw.write([]byte("null"))
	case bytes.IndexByte(p, '\n') >= 0:
		var c bytes.Buffer
		if err := json.Compact(&c, p); err != nil {
			if lw.err == nil {
				lw.err = fmt.Errorf("serve: unit flow payload: %w", err)
			}
			return
		}
		lw.write(c.Bytes())
	default:
		lw.write(p)
	}
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
