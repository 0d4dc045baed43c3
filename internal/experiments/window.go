package experiments

import (
	"fmt"
	"time"

	"repro/internal/export"
	"repro/internal/trace"
)

// WindowSample is one point of a congestion-window time series.
type WindowSample struct {
	At   time.Duration
	Cwnd float64
}

// WindowTraceResult is the congestion-window evolution of one flow — the
// live counterpart of the paper's schematic Figs 7-9: linear growth in
// congestion avoidance, halvings at fast retransmits, collapses to one
// segment at timeouts, and the flat stretches pinned at W_m.
type WindowTraceResult struct {
	Meta     trace.FlowMeta
	Samples  []WindowSample
	Timeouts []time.Duration
	FastRetx []time.Duration
	Wm       int
}

// WindowTrace extracts the window evolution from a Figure1 run's trace.
func WindowTrace(fig1 *Figure1Result) (*WindowTraceResult, error) {
	if fig1 == nil || fig1.Trace == nil {
		return nil, fmt.Errorf("experiments: WindowTrace requires a Figure1 result with its trace")
	}
	res := &WindowTraceResult{Meta: fig1.Meta, Wm: fig1.Meta.WindowLimit}
	for _, ev := range fig1.Trace.Events {
		switch ev.Type {
		case trace.EvDataSend:
			res.Samples = append(res.Samples, WindowSample{At: ev.At, Cwnd: ev.Cwnd})
		case trace.EvTimeout:
			res.Timeouts = append(res.Timeouts, ev.At)
		case trace.EvFastRetx:
			res.FastRetx = append(res.FastRetx, ev.At)
		}
	}
	if len(res.Samples) == 0 {
		return nil, fmt.Errorf("experiments: the flow transmitted nothing")
	}
	return res, nil
}

// Section plots the window evolution with the loss indications marked.
func (r *WindowTraceResult) Section() export.Section {
	pts := make([]export.XY, 0, len(r.Samples))
	for _, s := range r.Samples {
		pts = append(pts, export.XY{X: s.At.Seconds(), Y: s.Cwnd})
	}
	marks := func(at []time.Duration, y float64) []export.XY {
		out := make([]export.XY, 0, len(at))
		for _, a := range at {
			out = append(out, export.XY{X: a.Seconds(), Y: y})
		}
		return out
	}
	plot := &export.Plot{
		Title:  "Window evolution (the live Figs 7-9): cwnd over time with loss indications",
		XLabel: "time (s)",
		YLabel: "cwnd (packets)",
		Height: 18,
	}
	plot.Add("cwnd", '.', pts)
	plot.Add("timeout", 'T', marks(r.Timeouts, 0))
	plot.Add("fast-retx", 'F', marks(r.FastRetx, float64(r.Wm)))
	var s export.Section
	s.AddPlot(plot)
	s.Linef("flow %s: %d sends, %d fast retransmits (halvings), %d timeouts (collapses to 1), Wm=%d",
		r.Meta.ID, len(r.Samples), len(r.FastRetx), len(r.Timeouts), r.Wm)
	return s
}
