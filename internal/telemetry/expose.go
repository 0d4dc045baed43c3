package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// TextExposer renders counters and gauges in the Prometheus text exposition
// format ("name value" lines, '#'-prefixed comments). It exists so a
// long-running service can publish the same telemetry counters the JSON
// reports carry without taking on a metrics dependency: every line derives
// from deterministic integers (plus whatever gauges the caller adds), and
// lines are emitted in call order, so scrapes of identical state are
// byte-identical.
//
// Write errors are sticky: the first one is remembered, later calls are
// no-ops, and Flush reports it.
type TextExposer struct {
	w      *bufio.Writer
	prefix string
	err    error
}

// NewTextExposer wraps w; every metric name is prepended with prefix
// (conventionally the service name plus '_').
func NewTextExposer(w io.Writer, prefix string) *TextExposer {
	return &TextExposer{w: bufio.NewWriter(w), prefix: prefix}
}

// Comment emits a '#'-prefixed comment line.
func (e *TextExposer) Comment(text string) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, "# %s\n", text)
}

// Int emits one integer-valued metric line.
func (e *TextExposer) Int(name string, v int64) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, "%s%s %d\n", e.prefix, name, v)
}

// Float emits one float-valued metric line ('g' formatting, so integral
// values stay terse and scrapes stay deterministic).
func (e *TextExposer) Float(name string, v float64) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, "%s%s %s\n", e.prefix, name, strconv.FormatFloat(v, 'g', -1, 64))
}

// IntLabeled emits one integer-valued metric line with labels, given as
// key, value pairs emitted in call order (so scrapes stay byte-identical).
func (e *TextExposer) IntLabeled(name string, v int64, labels ...string) {
	if e.err != nil {
		return
	}
	if _, e.err = fmt.Fprintf(e.w, "%s%s{", e.prefix, name); e.err != nil {
		return
	}
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ""
		if i > 0 {
			sep = ","
		}
		if _, e.err = fmt.Fprintf(e.w, "%s%s=%q", sep, labels[i], labels[i+1]); e.err != nil {
			return
		}
	}
	_, e.err = fmt.Fprintf(e.w, "} %d\n", v)
}

// BuildInfo emits the conventional build_info gauge — a constant 1 whose
// version label carries the build — so dashboards can join fleet metrics
// against deployed versions.
func (e *TextExposer) BuildInfo(version string) {
	e.IntLabeled("build_info", 1, "version", version)
}

// Dist emits a distribution as a Prometheus summary-style metric family:
// _count and _sum always (so rates and averages derive server-side), _min
// and _max when non-empty (NaN never leaks into the exposition).
func (e *TextExposer) Dist(name string, d *Dist) {
	e.Int(name+"_count", int64(d.N()))
	e.Float(name+"_sum", d.Sum())
	if d.N() > 0 {
		e.Float(name+"_min", d.Min())
		e.Float(name+"_max", d.Max())
	}
}

// Cache emits the flow-result-cache counters.
func (e *TextExposer) Cache(c *Cache) {
	e.Int("cache_hits_total", c.Hits)
	e.Int("cache_misses_total", c.Misses)
	e.Int("cache_dedups_total", c.Dedups)
	e.Int("cache_errors_total", c.Errors)
	e.Int("cache_evictions_total", c.Evictions)
	e.Int("cache_read_bytes_total", c.BytesRead)
	e.Int("cache_written_bytes_total", c.BytesWritten)
}

// Fleet emits the distributed-campaign coordinator counters.
func (e *TextExposer) Fleet(f *Fleet) {
	e.Int("fleet_workers", f.Workers)
	e.Int("fleet_units_total", f.Units)
	e.Int("fleet_units_dispatched_total", f.UnitsDispatched)
	e.Int("fleet_units_completed_total", f.UnitsCompleted)
	e.Int("fleet_units_local_total", f.UnitsLocal)
	e.Int("fleet_retries_total", f.Retries)
	e.Int("fleet_reassignments_total", f.Reassignments)
	e.Int("fleet_hedges_total", f.Hedges)
	e.Int("fleet_duplicate_results_total", f.DuplicateResults)
	e.Int("fleet_workers_lost_total", f.WorkersLost)
	e.Int("fleet_workers_readmitted_total", f.WorkersReadmitted)
	e.Int("fleet_degraded_campaigns_total", f.Degraded)
}

// Campaign emits the deterministic counter sections of a campaign
// aggregate: flow count, kernel, endpoint, link and fault totals.
func (e *TextExposer) Campaign(c *Campaign) {
	flows, k, t, n, f := c.Counters()
	e.Int("campaign_flows_total", flows)
	e.Int("kernel_events_total", k.Events)
	e.Int("kernel_scheduled_total", k.Scheduled)
	e.Int("kernel_virtual_ns_total", k.VirtualNS)
	e.Int("kernel_batches_total", k.Batches)
	e.Int("kernel_max_batch", k.MaxBatch)
	e.Int("kernel_max_pending", k.MaxPending)
	e.Int("tcp_flows_total", t.Flows)
	e.Int("tcp_data_sent_total", t.DataSent)
	e.Int("tcp_retransmissions_total", t.Retransmissions)
	e.Int("tcp_timeouts_total", t.Timeouts)
	e.Int("tcp_fast_retransmits_total", t.FastRetransmits)
	e.Int("tcp_spurious_recoveries_total", t.SpuriousRecoveries)
	e.Int("tcp_recovery_phases_total", t.RecoveryPhases)
	// Per-variant breakdown, sorted by variant name so scrapes of
	// identical state stay byte-identical.
	ccNames := make([]string, 0, len(t.ByCC))
	for name := range t.ByCC {
		ccNames = append(ccNames, name)
	}
	sort.Strings(ccNames)
	for _, name := range ccNames {
		s := t.ByCC[name]
		e.IntLabeled("tcp_cc_flows_total", s.Flows, "cc", name)
		e.IntLabeled("tcp_cc_data_sent_total", s.DataSent, "cc", name)
		e.IntLabeled("tcp_cc_retransmissions_total", s.Retransmissions, "cc", name)
		e.IntLabeled("tcp_cc_unique_delivered_total", s.UniqueDelivered, "cc", name)
		e.IntLabeled("tcp_cc_timeouts_total", s.Timeouts, "cc", name)
		e.IntLabeled("tcp_cc_fast_retransmits_total", s.FastRetransmits, "cc", name)
		e.IntLabeled("tcp_cc_cwnd_samples_total", s.CwndHist.Total(), "cc", name)
	}
	e.Int("net_data_offered_total", n.Data.Offered)
	e.Int("net_data_delivered_total", n.Data.Delivered)
	e.Int("net_data_channel_drops_total", n.Data.ChannelDrops)
	e.Int("net_data_queue_drops_total", n.Data.QueueDrops)
	e.Int("net_ack_offered_total", n.Ack.Offered)
	e.Int("net_ack_delivered_total", n.Ack.Delivered)
	e.Int("net_ack_channel_drops_total", n.Ack.ChannelDrops)
	e.Int("net_ack_queue_drops_total", n.Ack.QueueDrops)
	e.Int("net_data_vector_bursts_total", n.Data.VectorBursts)
	e.Int("net_data_vector_packets_total", n.Data.VectorPackets)
	e.Int("net_ack_vector_bursts_total", n.Ack.VectorBursts)
	e.Int("net_ack_vector_packets_total", n.Ack.VectorPackets)
	ch := c.ChannelCounters()
	e.Int("channel_compiles_total", ch.Compiles)
	e.Int("channel_segments_total", ch.Segments)
	e.Int("channel_cursor_queries_total", ch.CursorQueries)
	e.Int("channel_cursor_advances_total", ch.CursorAdvances)
	e.Int("channel_cursor_fallbacks_total", ch.CursorFallbacks)
	e.Int("faults_schedules_total", f.Schedules)
	e.Int("faults_episodes_total", f.Episodes)
	e.Int("faults_data_drops_total", f.DataDrops)
	e.Int("faults_ack_drops_total", f.AckDrops)
}

// Flush writes out buffered lines and returns the first error encountered.
func (e *TextExposer) Flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}
