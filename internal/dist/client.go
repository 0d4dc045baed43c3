package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/tracing"
)

// unitFlow is one flow of a unit result, decoded: the wire form of
// serve.UnitFlow with its payload bytes read straight into a CachedFlow.
// Cached marks a flow the worker served from its cache (or another job's
// simulation) rather than simulated.
type unitFlow struct {
	Index  int                `json:"index"`
	Flow   dataset.CachedFlow `json:"flow"`
	Cached bool               `json:"cached"`
}

// unitEvent is the part of a serve.Event line the coordinator reads from a
// unit job's stream. Decoding into it (rather than serve.Event, whose unit
// flows are raw bytes) decodes every flow in the same single pass as the
// line itself.
type unitEvent struct {
	Event string `json:"event"`
	Error string `json:"error"`
	Unit  *struct {
		Flows []unitFlow `json:"flows"`
	} `json:"unit"`
	Spans []tracing.SpanRecord `json:"spans"`
}

// runUnitOn executes one unit on one worker: a unit job POSTed to the
// worker's /v1/jobs, the NDJSON stream read to its terminal line, the
// unit payload returned. The whole exchange runs under the per-unit
// deadline — a worker that stalls mid-stream (accepted the job, stopped
// making progress) times out the same as one that never answered.
//
// When the campaign is traced, parentSpanID (the coordinator-side attempt
// span) rides along as the job's trace context; the worker then records its
// own job/flow/cache spans into the same trace and ships the batch back on
// the terminal event — returned here for stitching, and empty when no
// terminal event arrived.
func (c *Coordinator) runUnitOn(r *run, w *worker, u *unit, parentSpanID string) ([]unitFlow, []tracing.SpanRecord, error) {
	ctx, cancel := context.WithTimeout(r.ctx, c.cfg.UnitTimeout)
	defer cancel()

	spec := serve.JobSpec{
		Kind: serve.KindUnit,
		Unit: &serve.UnitSpec{
			Seed:        r.cfg.Seed,
			Duration:    serve.Duration(r.cfg.FlowDuration),
			FlowsPerRow: r.cfg.FlowsPerRow,
			Stationary:  r.cfg.Stationary,
			Faults:      faultsDSL(r.cfg.Faults),
			Start:       u.start,
			End:         u.end,
		},
		TimeoutMS: c.cfg.UnitTimeout.Milliseconds(),
	}
	if r.tr != nil {
		spec.Trace = &serve.TraceContext{ID: r.tr.ID(), Parent: parentSpanID}
	}
	body, err := json.Marshal(&spec)
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return nil, nil, fmt.Errorf("dist: worker %s: status %d: %s", w.url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	flows, spans, err := readUnitResult(resp.Body, u.start, u.end)
	if err != nil {
		return nil, spans, fmt.Errorf("dist: worker %s: %w", w.url, err)
	}
	return flows, spans, nil
}

// readUnitResult reads a unit job's NDJSON stream up to its terminal line
// and validates the result for the plan range [start, end): one flow per
// index, in order, each with metrics and telemetry whose histograms and
// accumulator pass telemetry.FlowState.Validate. Every defect — an
// undecodable line, a missing terminal event, a worker error or a
// malformed result — is an error, so the unit takes the coordinator's
// retry path instead of reaching campaign assembly. The terminal event's
// span batch is returned whenever one arrived.
func readUnitResult(r io.Reader, start, end int) ([]unitFlow, []tracing.SpanRecord, error) {
	// The buffer starts small and grows to the longest line (a 16-flow unit
	// is ~64 KB); the 64 MiB cap bounds what a hostile worker can make the
	// coordinator hold.
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<26)
	var terminal *unitEvent
	for sc.Scan() {
		var e unitEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, nil, fmt.Errorf("bad event line: %w", err)
		}
		if e.Event == "result" || e.Event == "error" {
			terminal = &e
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("stream: %w", err)
	}
	if terminal == nil {
		return nil, nil, fmt.Errorf("stream ended without a terminal event")
	}
	if terminal.Event == "error" {
		return nil, terminal.Spans, errors.New(terminal.Error)
	}
	if terminal.Unit == nil || len(terminal.Unit.Flows) != end-start {
		return nil, terminal.Spans, fmt.Errorf("malformed unit result for [%d, %d)", start, end)
	}
	for i, f := range terminal.Unit.Flows {
		switch {
		case f.Index != start+i:
			return nil, terminal.Spans, fmt.Errorf("unit [%d, %d) shipped index %d at offset %d", start, end, f.Index, i)
		case f.Flow.Metrics == nil:
			return nil, terminal.Spans, fmt.Errorf("flow %d arrived without metrics", f.Index)
		case f.Flow.Telemetry == nil:
			return nil, terminal.Spans, fmt.Errorf("flow %d arrived without telemetry", f.Index)
		}
		if err := f.Flow.Telemetry.Validate(); err != nil {
			return nil, terminal.Spans, fmt.Errorf("flow %d: %w", f.Index, err)
		}
	}
	return terminal.Unit.Flows, terminal.Spans, nil
}

// faultsDSL renders a campaign's fault schedule back to the wire DSL the
// unit spec carries (empty when none).
func faultsDSL(s *faults.Schedule) string {
	if s == nil {
		return ""
	}
	return s.String()
}
