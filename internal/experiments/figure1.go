package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/cellular"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/railway"
	"repro/internal/trace"
)

// Figure1Result is the per-packet delivery-latency scatter of one HSR flow
// at cruise speed (paper Fig 1): data packets below, ACKs above, lost
// packets plotted at -1, timeout events numbered along the time axis.
type Figure1Result struct {
	Meta     trace.FlowMeta
	Points   []analysis.DeliveryPoint
	Timeouts []time.Duration // first timeout of each recovery sequence
	Metrics  *analysis.FlowMetrics

	// The flow's trace, retained so Figure2 can zoom into one recovery.
	Trace *trace.FlowTrace
}

// Figure1 runs one cruise-speed flow with full trace retention and
// reconstructs the delivery scatter. The seed is scanned deterministically
// until a flow with at least minTimeouts timeout sequences is found, like
// the paper's chosen example flow with its 10 numbered timeouts.
func Figure1(cfg Config) (*Figure1Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		return nil, err
	}
	start, _ := trip.CruiseWindow()
	const minTimeouts = 6
	var best *Figure1Result
	for attempt := int64(0); attempt < 16; attempt++ {
		sc := dataset.Scenario{
			ID:           fmt.Sprintf("fig1-%d", attempt),
			Operator:     cellular.ChinaMobileLTE,
			Trip:         trip,
			TripOffset:   start + time.Duration(attempt)*37*time.Second,
			FlowDuration: cfg.FlowDuration,
			Seed:         cfg.Seed*131 + attempt,
			TCP:          defaultTCP(),
			Scenario:     "hsr",
		}
		ft, _, err := dataset.RunFlow(sc)
		if err != nil {
			return nil, err
		}
		m, err := analysis.Analyze(ft)
		if err != nil {
			return nil, err
		}
		pts, err := analysis.DeliverySeries(ft)
		if err != nil {
			return nil, err
		}
		res := &Figure1Result{Meta: ft.Meta, Points: pts, Metrics: m, Trace: ft}
		for _, rec := range m.Recoveries {
			res.Timeouts = append(res.Timeouts, rec.FirstTimeout)
		}
		if best == nil || len(res.Timeouts) > len(best.Timeouts) {
			best = res
		}
		if len(res.Timeouts) >= minTimeouts {
			return res, nil
		}
	}
	return best, nil
}

// Section draws the scatter: x = send time (s), y = delivery latency (ms),
// lost packets at y = -1 following the paper's plotting convention (ACK
// latencies negated so ACKs sit in the upper half and data in the lower,
// mirroring the paper's two bands). Its CSV series lists every packet as
// (send time, kind, latency, lost, seq) for external plotting.
func (r *Figure1Result) Section() export.Section {
	var dataOK, dataLost, ackOK, ackLost []export.XY
	for _, p := range r.Points {
		x := p.SentAt.Seconds()
		switch {
		case p.Kind == analysis.DataPacket && p.Lost:
			dataLost = append(dataLost, export.XY{X: x, Y: -1})
		case p.Kind == analysis.DataPacket:
			dataOK = append(dataOK, export.XY{X: x, Y: -p.Latency.Seconds() * 1000})
		case p.Lost:
			ackLost = append(ackLost, export.XY{X: x, Y: 1})
		default:
			ackOK = append(ackOK, export.XY{X: x, Y: p.Latency.Seconds() * 1000})
		}
	}
	plot := &export.Plot{
		Title:  "Fig 1 — time for ACKs (top) and data (bottom) to arrive; losses on the +-1 lines",
		XLabel: "send time (s)",
		YLabel: "arrival latency (ms; data negated)",
		Height: 24,
	}
	plot.Add("ack", '\'', ackOK)
	plot.Add("data", '.', dataOK)
	plot.Add("lost-ack", 'X', ackLost)
	plot.Add("lost-data", 'x', dataLost)

	var at strings.Builder
	for i, to := range r.Timeouts {
		fmt.Fprintf(&at, " %d:%.1fs", i+1, to.Seconds())
	}
	var s export.Section
	s.AddPlot(plot)
	s.Linef("flow %s (%s, %s): %d data pkts, %d acks, %d timeout sequences at:%s",
		r.Meta.ID, r.Meta.Operator, r.Meta.Tech,
		len(dataOK)+len(dataLost), len(ackOK)+len(ackLost), len(r.Timeouts), at.String())
	csv := export.NewTable("sent_s", "kind", "latency_ms", "lost", "seq")
	for _, p := range r.Points {
		lat := "-1"
		if !p.Lost {
			lat = fmt.Sprintf("%.3f", p.Latency.Seconds()*1000)
		}
		csv.AddRow(fmt.Sprintf("%.6f", p.SentAt.Seconds()), p.Kind.String(), lat,
			fmt.Sprintf("%v", p.Lost), fmt.Sprintf("%d", p.Seq))
	}
	s.CSVName, s.CSV = "fig1_delivery", csv
	return s
}

// Figure2Result zooms into one timeout recovery phase of the Figure 1 flow
// (paper Fig 2): the cautious single-packet retransmissions, their fates,
// and the exponential backoff.
type Figure2Result struct {
	Phase  analysis.RecoveryPhase
	Events []trace.Event // the phase's packet events
}

// Figure2 extracts the longest recovery phase from a Figure1 run.
func Figure2(fig1 *Figure1Result) (*Figure2Result, error) {
	if fig1 == nil || fig1.Metrics == nil {
		return nil, fmt.Errorf("experiments: Figure2 requires a Figure1 result")
	}
	if len(fig1.Metrics.Recoveries) == 0 {
		return nil, fmt.Errorf("experiments: the Figure1 flow has no recovery phases")
	}
	longest := fig1.Metrics.Recoveries[0]
	for _, r := range fig1.Metrics.Recoveries[1:] {
		if r.Duration() > longest.Duration() {
			longest = r
		}
	}
	res := &Figure2Result{Phase: longest}
	lo, hi := longest.Start, longest.End+time.Second
	for _, ev := range fig1.Trace.Events {
		if ev.At < lo || ev.At > hi {
			continue
		}
		switch ev.Type {
		case trace.EvDataSend, trace.EvDataRecv, trace.EvDataDrop,
			trace.EvTimeout, trace.EvRecovered:
			res.Events = append(res.Events, ev)
		}
	}
	return res, nil
}

// Section prints the recovery timeline.
func (r *Figure2Result) Section() export.Section {
	var s export.Section
	s.Linef("Fig 2 — retransmission process in a timeout recovery phase")
	s.Linef("phase: CA ended %.2fs, first RTO %.2fs, recovered %.2fs (duration %.2fs, %d timeouts, spurious=%v)",
		r.Phase.Start.Seconds(), r.Phase.FirstTimeout.Seconds(), r.Phase.End.Seconds(),
		r.Phase.Duration().Seconds(), r.Phase.Timeouts, r.Phase.Spurious)
	t := export.NewTable("t (s)", "event", "seq", "tx#", "note")
	for _, ev := range r.Events {
		note := ""
		switch ev.Type {
		case trace.EvTimeout:
			note = fmt.Sprintf("backoff 2^%d", ev.Backoff)
		case trace.EvDataSend:
			if ev.TransmitNo > 1 {
				note = "retransmission"
			}
		case trace.EvDataDrop:
			note = "lost on channel"
		}
		seq := fmt.Sprintf("%d", ev.Seq)
		if ev.Seq < 0 {
			seq = "-"
		}
		txno := fmt.Sprintf("%d", ev.TransmitNo)
		if ev.TransmitNo == 0 {
			txno = "-"
		}
		t.AddRow(fmt.Sprintf("%.3f", ev.At.Seconds()), ev.Type.String(), seq, txno, note)
	}
	s.AddTable(t)
	return s
}
