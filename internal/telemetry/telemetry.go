// Package telemetry is the simulator's observability layer: allocation-
// conscious metrics (counters, streaming distributions, fixed-bound
// histograms), a bounded flight recorder of per-flow state transitions, and
// typed JSON reports.
//
// The layer is compiled in everywhere but costs ~nothing when disabled.
// Instrumented components (the sim kernel, tcp.Conn, the netem links, the
// fault injectors) hold a nil telemetry pointer by default and guard every
// update with a single predictable nil check — the hot paths allocate
// nothing and the campaign output is byte-identical whether or not the
// check compiles in a telemetry sink. When a sink is attached, updates are
// plain integer field increments into caller-owned structs: still zero
// allocations per event.
//
// Aggregation is deterministic by construction: every per-flow Flow bundle
// is produced by a single-threaded simulation, and Campaign.AddFlow merges
// flows in campaign order after the parallel phase has completed, so the
// counter sections of a report are bit-identical across any -jobs setting.
// Wall-clock fields (Flow.WallNS, Campaign.WallNS) are the one documented
// exception: they measure host resources, not simulated behaviour.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/stats"
)

// Dist is a streaming distribution summary (count, mean, standard
// deviation, min, max) with deterministic JSON marshalling. The zero value
// is an empty distribution ready for use; Add is allocation-free.
type Dist struct {
	r stats.Running
	// parsed holds a summary decoded from JSON (a report round trip). The
	// streaming accumulator cannot be reconstructed exactly from its summary
	// (the inverse mappings round), so the parsed form is kept verbatim and
	// re-emitted by MarshalJSON: a report survives any number of read/write
	// round trips byte for byte. A parsed Dist is a read-only summary —
	// Add or Merge on one discards the parsed part.
	parsed *distSummary
}

// distSummary mirrors the marshalled form of a non-empty distribution.
type distSummary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Add folds one sample into the distribution.
func (d *Dist) Add(x float64) { d.parsed = nil; d.r.Add(x) }

// Merge folds other into d (Chan et al. parallel combine, via
// stats.Running.Merge). Merge order must be fixed for bit-identical
// results; campaign aggregation merges in flow order.
func (d *Dist) Merge(other *Dist) { d.parsed = nil; d.r.Merge(&other.r) }

// N returns the number of samples added.
func (d *Dist) N() int {
	if d.parsed != nil {
		return d.parsed.N
	}
	return d.r.N()
}

// Mean returns the sample mean, or NaN when empty.
func (d *Dist) Mean() float64 {
	if d.parsed != nil {
		return d.parsed.Mean
	}
	return d.r.Mean()
}

// Max returns the largest sample, or NaN when empty.
func (d *Dist) Max() float64 {
	if d.parsed != nil {
		return d.parsed.Max
	}
	return d.r.Max()
}

// Min returns the smallest sample, or NaN when empty.
func (d *Dist) Min() float64 {
	if d.parsed != nil {
		return d.parsed.Min
	}
	return d.r.Min()
}

// Sum returns the sum of all samples (0 when empty). A parsed (read-only)
// summary reconstructs it as mean*n — exact up to float rounding, which is
// fine for the Prometheus exposition it feeds.
func (d *Dist) Sum() float64 {
	if d.parsed != nil {
		return d.parsed.Mean * float64(d.parsed.N)
	}
	return d.r.Sum()
}

// MarshalJSON emits {"n":0} for an empty distribution and a flat summary
// object otherwise. NaN never leaks into the JSON: the standard deviation
// of fewer than two samples is reported as 0.
func (d Dist) MarshalJSON() ([]byte, error) {
	if d.parsed != nil {
		return json.Marshal(d.parsed)
	}
	if d.r.N() == 0 {
		return []byte(`{"n":0}`), nil
	}
	std := d.r.StdDev()
	if d.r.N() < 2 {
		std = 0
	}
	return json.Marshal(distSummary{d.r.N(), d.r.Mean(), std, d.r.Min(), d.r.Max()})
}

// State returns the distribution's exact accumulator state for wire
// transport. Unlike the JSON summary (which is deliberately lossy and
// read-only after a round trip), a state snapshot restored with RestoreDist
// merges and accumulates exactly like the original — the distributed
// campaign path depends on this to keep remote flows byte-identical to
// local ones. A parsed (read-only) Dist has no accumulator to snapshot and
// returns the zero state.
func (d *Dist) State() stats.RunningState { return d.r.State() }

// RestoreDist reconstructs a live distribution from a State snapshot.
func RestoreDist(s stats.RunningState) Dist { return Dist{r: stats.RestoreRunning(s)} }

// UnmarshalJSON restores a distribution written by MarshalJSON as a
// read-only summary; see the parsed field for the round-trip contract.
func (d *Dist) UnmarshalJSON(raw []byte) error {
	var s distSummary
	if err := json.Unmarshal(raw, &s); err != nil {
		return err
	}
	d.r = stats.Running{}
	if s.N == 0 {
		d.parsed = nil
		return nil
	}
	d.parsed = &s
	return nil
}

// Kernel collects event-kernel metrics for one simulation (or, after
// merging, a whole campaign). Events counts executed events; Scheduled
// counts new events — Schedule/At calls and lane pushes, not Reschedule
// re-arms.
type Kernel struct {
	Events    int64 `json:"events"`
	Scheduled int64 `json:"scheduled"`
	// MaxPending is the peak number of scheduled, not-yet-fired events.
	MaxPending int64 `json:"max_pending"`
	// Batches counts runs of consecutive events that fire at one virtual
	// instant (the clock does not move inside a batch), so Events/Batches is
	// the mean number of events per instant. MaxBatch is the longest run.
	Batches          int64 `json:"batches"`
	MaxBatch         int64 `json:"max_batch"`
	TimerStops       int64 `json:"timer_stops"`
	TimerReschedules int64 `json:"timer_reschedules"`
	// VirtualNS is the total virtual time simulated, in nanoseconds.
	VirtualNS int64 `json:"virtual_ns"`
	// BudgetEvents is the sum of configured kernel event budgets
	// (0 = unlimited); BudgetHeadroom derives from it.
	BudgetEvents int64 `json:"budget_events"`
}

// BudgetHeadroom returns the unused fraction of the event budget
// (1 = untouched, 0 = exhausted), or 1 when no budget was configured.
func (k *Kernel) BudgetHeadroom() float64 {
	if k.BudgetEvents <= 0 {
		return 1
	}
	h := 1 - float64(k.Events)/float64(k.BudgetEvents)
	if h < 0 {
		return 0
	}
	return h
}

// Merge folds other into k: counters sum, the Max* gauges take the maximum.
func (k *Kernel) Merge(other *Kernel) {
	k.Events += other.Events
	k.Scheduled += other.Scheduled
	if other.MaxPending > k.MaxPending {
		k.MaxPending = other.MaxPending
	}
	k.Batches += other.Batches
	if other.MaxBatch > k.MaxBatch {
		k.MaxBatch = other.MaxBatch
	}
	k.TimerStops += other.TimerStops
	k.TimerReschedules += other.TimerReschedules
	k.VirtualNS += other.VirtualNS
	k.BudgetEvents += other.BudgetEvents
}

// MarshalJSON adds the derived budget_headroom field to the raw counters;
// it derives from deterministic integers, so the JSON is reproducible.
func (k Kernel) MarshalJSON() ([]byte, error) {
	type raw Kernel // shed the method to avoid recursion
	return json.Marshal(struct {
		raw
		BudgetHeadroom float64 `json:"budget_headroom"`
	}{raw(k), k.BudgetHeadroom()})
}

// TCP collects per-flow endpoint metrics mirroring the paper's measured
// quantities: the recovery-phase retransmission loss of Fig 3
// (RecoveryRetxDrops / RecoveryRetransmits), the timeout counters of Fig 4,
// and the ACK-loss quantities of Fig 6 (AcksSent / AcksDropped).
type TCP struct {
	Flows              int64 `json:"flows"`
	DataSent           int64 `json:"data_sent"`
	Retransmissions    int64 `json:"retransmissions"`
	DataDropped        int64 `json:"data_dropped"`
	UniqueDelivered    int64 `json:"unique_delivered"`
	DupDelivered       int64 `json:"dup_delivered"`
	AcksSent           int64 `json:"acks_sent"`
	AcksReceived       int64 `json:"acks_received"`
	AcksDropped        int64 `json:"acks_dropped"`
	Timeouts           int64 `json:"timeouts"` // individual RTO expirations
	FastRetransmits    int64 `json:"fast_retransmits"`
	SpuriousRecoveries int64 `json:"spurious_recoveries"` // Eifel undo events
	// RecoveryPhases counts entries into timeout recovery (the paper's
	// timeout sequences); RecoveryNS is the total virtual time spent inside.
	RecoveryPhases int64 `json:"recovery_phases"`
	RecoveryNS     int64 `json:"recovery_ns"`
	// RecoveryRetransmits / RecoveryRetxDrops are the Fig 3 q domain: data
	// transmissions sent inside timeout recovery and how many of them the
	// channel dropped.
	RecoveryRetransmits int64 `json:"recovery_retransmits"`
	RecoveryRetxDrops   int64 `json:"recovery_retx_drops"`

	// Cwnd summarizes the congestion window sampled at every processed ACK;
	// CwndHist buckets the same samples; BackoffHist buckets the backoff
	// exponent observed at each RTO expiration.
	Cwnd        Dist `json:"cwnd"`
	CwndHist    Hist `json:"cwnd_hist"`
	BackoffHist Hist `json:"backoff_hist"`

	// ByCC breaks the headline counters down by congestion-control variant
	// name ("reno", "cubic", ...). Everything in a CCStats is an integer
	// counter or an exact histogram, so the breakdown — unlike a Dist —
	// merges order-independently and survives JSON round trips bit for
	// bit, which keeps mixed-CC campaigns byte-identical at any -jobs or
	// worker count. Nil until the first flow reports a variant.
	ByCC map[string]*CCStats `json:"by_cc,omitempty"`
}

// CCStats is the per-congestion-control slice of the TCP section: the
// counters a fairness analysis needs, labeled by variant name.
type CCStats struct {
	Flows              int64 `json:"flows"`
	DataSent           int64 `json:"data_sent"`
	Retransmissions    int64 `json:"retransmissions"`
	UniqueDelivered    int64 `json:"unique_delivered"`
	Timeouts           int64 `json:"timeouts"`
	FastRetransmits    int64 `json:"fast_retransmits"`
	SpuriousRecoveries int64 `json:"spurious_recoveries"`
	RecoveryPhases     int64 `json:"recovery_phases"`
	// CwndHist buckets this variant's per-ACK window samples (the same
	// bounds as TCP.CwndHist), so variant window shapes are comparable in
	// one report.
	CwndHist Hist `json:"cwnd_hist"`
}

// Merge folds other into s. Integer adds and exact histogram adds only, so
// merge order never changes the result.
func (s *CCStats) Merge(other *CCStats) {
	s.Flows += other.Flows
	s.DataSent += other.DataSent
	s.Retransmissions += other.Retransmissions
	s.UniqueDelivered += other.UniqueDelivered
	s.Timeouts += other.Timeouts
	s.FastRetransmits += other.FastRetransmits
	s.SpuriousRecoveries += other.SpuriousRecoveries
	s.RecoveryPhases += other.RecoveryPhases
	s.CwndHist.Merge(&other.CwndHist)
}

// CC returns the named per-variant slice, creating it (with the standard
// cwnd histogram bounds) on first use.
func (t *TCP) CC(name string) *CCStats {
	if t.ByCC == nil {
		t.ByCC = make(map[string]*CCStats)
	}
	s := t.ByCC[name]
	if s == nil {
		s = &CCStats{CwndHist: NewHist(cwndBounds...)}
		t.ByCC[name] = s
	}
	return s
}

// cloneCCStats deep-copies one per-variant slice.
func cloneCCStats(s *CCStats) *CCStats {
	cp := *s
	cp.CwndHist = cloneHist(s.CwndHist)
	return &cp
}

// cloneByCC deep-copies a per-variant breakdown (nil stays nil).
func cloneByCC(m map[string]*CCStats) map[string]*CCStats {
	if m == nil {
		return nil
	}
	out := make(map[string]*CCStats, len(m))
	for name, s := range m {
		out[name] = cloneCCStats(s)
	}
	return out
}

// The standard histogram bounds: congestion window in segments, and the
// RTO backoff exponent.
var (
	cwndBounds    = []float64{1, 2, 4, 8, 16, 32, 64, 128}
	backoffBounds = []float64{0, 1, 2, 3, 4, 5, 6}
)

// NewTCP returns a TCP metrics block with the standard cwnd and backoff
// histogram bounds installed.
func NewTCP() *TCP {
	return &TCP{
		CwndHist:    NewHist(cwndBounds...),
		BackoffHist: NewHist(backoffBounds...),
	}
}

// Merge folds other into t.
func (t *TCP) Merge(other *TCP) {
	t.Flows += other.Flows
	t.DataSent += other.DataSent
	t.Retransmissions += other.Retransmissions
	t.DataDropped += other.DataDropped
	t.UniqueDelivered += other.UniqueDelivered
	t.DupDelivered += other.DupDelivered
	t.AcksSent += other.AcksSent
	t.AcksReceived += other.AcksReceived
	t.AcksDropped += other.AcksDropped
	t.Timeouts += other.Timeouts
	t.FastRetransmits += other.FastRetransmits
	t.SpuriousRecoveries += other.SpuriousRecoveries
	t.RecoveryPhases += other.RecoveryPhases
	t.RecoveryNS += other.RecoveryNS
	t.RecoveryRetransmits += other.RecoveryRetransmits
	t.RecoveryRetxDrops += other.RecoveryRetxDrops
	t.Cwnd.Merge(&other.Cwnd)
	t.CwndHist.Merge(&other.CwndHist)
	t.BackoffHist.Merge(&other.BackoffHist)
	for name, o := range other.ByCC {
		// Map iteration order is irrelevant here: every CCStats field
		// merges by integer addition, which commutes bitwise.
		if t.ByCC == nil {
			t.ByCC = make(map[string]*CCStats, len(other.ByCC))
		}
		if s := t.ByCC[name]; s != nil {
			s.Merge(o)
		} else {
			t.ByCC[name] = cloneCCStats(o)
		}
	}
}

// LinkCounters is the telemetry view of one link direction, harvested from
// netem.LinkStats at the end of a flow (zero per-packet overhead).
type LinkCounters struct {
	Offered      int64 `json:"offered"`
	Delivered    int64 `json:"delivered"`
	ChannelDrops int64 `json:"channel_drops"`
	QueueDrops   int64 `json:"queue_drops"`
	PeakBacklog  int64 `json:"peak_backlog"` // peak queued packets (max-merged)
	// VectorBursts/VectorPackets count window fills whose admission and
	// delay/loss sampling ran through the vectorized burst path
	// (netem.Link.BeginBurstN) and the packets primed that way.
	VectorBursts  int64 `json:"vector_bursts"`
	VectorPackets int64 `json:"vector_packets"`
}

// Merge folds other into c.
func (c *LinkCounters) Merge(other *LinkCounters) {
	c.Offered += other.Offered
	c.Delivered += other.Delivered
	c.ChannelDrops += other.ChannelDrops
	c.QueueDrops += other.QueueDrops
	if other.PeakBacklog > c.PeakBacklog {
		c.PeakBacklog = other.PeakBacklog
	}
	c.VectorBursts += other.VectorBursts
	c.VectorPackets += other.VectorPackets
}

// Net groups link telemetry by direction: Data is the downlink (data
// segments), Ack the uplink (cumulative ACKs).
type Net struct {
	Data LinkCounters `json:"data"`
	Ack  LinkCounters `json:"ack"`
}

// Merge folds other into n.
func (n *Net) Merge(other *Net) {
	n.Data.Merge(&other.Data)
	n.Ack.Merge(&other.Ack)
}

// Channel counts the cellular channel's compiled-timeline activity: how
// many times the timeline was compiled (once at construction plus once per
// AddOutages), how many piecewise-constant segments the compilations
// produced, and how the per-packet cursor lookups resolved — a cache hit in
// the current segment (Queries minus Advances minus Fallbacks), a short
// monotonic walk forward (Advances), or a binary-search fallback for
// out-of-order queries (Fallbacks). Deterministic for a given seed.
type Channel struct {
	Compiles        int64 `json:"compiles"`
	Segments        int64 `json:"segments"`
	CursorQueries   int64 `json:"cursor_queries"`
	CursorAdvances  int64 `json:"cursor_advances"`
	CursorFallbacks int64 `json:"cursor_fallbacks"`
}

// Merge folds other into c.
func (c *Channel) Merge(other *Channel) {
	c.Compiles += other.Compiles
	c.Segments += other.Segments
	c.CursorQueries += other.CursorQueries
	c.CursorAdvances += other.CursorAdvances
	c.CursorFallbacks += other.CursorFallbacks
}

// Faults counts fault-schedule activity: how many flows carried a
// non-empty schedule, how many scripted episodes overlapped their windows,
// how many storm outages were injected, and how many packets the injected
// faults (as opposed to the underlying channel) dropped per direction.
type Faults struct {
	Schedules    int64 `json:"schedules"`
	Episodes     int64 `json:"episodes"`
	StormOutages int64 `json:"storm_outages"`
	DataDrops    int64 `json:"data_drops"`
	AckDrops     int64 `json:"ack_drops"`
}

// Merge folds other into f.
func (f *Faults) Merge(other *Faults) {
	f.Schedules += other.Schedules
	f.Episodes += other.Episodes
	f.StormOutages += other.StormOutages
	f.DataDrops += other.DataDrops
	f.AckDrops += other.AckDrops
}

// Cache counts flow-result-cache activity: how many flow simulations were
// skipped because a cached result was served (Hits), how many entries were
// looked up but absent (Misses), how many concurrent lookups were collapsed
// onto an in-flight computation of the same key (Dedups), how many stored
// entries were rejected as corrupt or unreadable and fell back to simulation
// (Errors), how many entries were evicted to honour the size bound
// (Evictions), and the entry bytes moved in each direction. All fields are
// host-side resource counters: they never influence simulated behaviour, and
// a warm cache reports the same experiment output with most of the
// simulation work replaced by Hits.
type Cache struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Dedups       int64 `json:"dedups"`
	Errors       int64 `json:"errors"`
	Evictions    int64 `json:"evictions"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
}

// Merge folds other into c.
func (c *Cache) Merge(other *Cache) {
	c.Hits += other.Hits
	c.Misses += other.Misses
	c.Dedups += other.Dedups
	c.Errors += other.Errors
	c.Evictions += other.Evictions
	c.BytesRead += other.BytesRead
	c.BytesWritten += other.BytesWritten
}

// Flow is the complete telemetry bundle of one simulated flow. Attach one
// to a dataset.Scenario to collect it; every section except WallNS is
// deterministic for a given seed.
type Flow struct {
	Kernel  Kernel  `json:"kernel"`
	TCP     TCP     `json:"tcp"`
	Net     Net     `json:"net"`
	Channel Channel `json:"channel"`
	Faults  Faults  `json:"faults"`
	// WallNS is host wall-clock time spent simulating the flow. It is a
	// resource metric and NOT reproducible across runs or -jobs settings.
	WallNS int64 `json:"wall_ns"`
}

// NewFlow returns a Flow bundle with histogram bounds installed.
func NewFlow() *Flow {
	f := &Flow{}
	f.TCP = *NewTCP()
	return f
}

// FlowState is the exact snapshot of a Flow bundle. The embedded Flow
// carries every integer counter and histogram verbatim, and CwndState
// carries the one floating-point accumulator (TCP.Cwnd) in its exact
// internal representation, because the Dist summary form is deliberately
// lossy. Restore reconstructs a Flow that merges into a Campaign
// byte-identically to the original, which is what lets a distributed
// campaign ship per-flow telemetry across workers (inside the binary flow
// payload of internal/dataset) and still produce a report bit-identical to
// a single-node run.
type FlowState struct {
	Flow
	CwndState stats.RunningState `json:"cwnd_state"`
}

// State snapshots the flow bundle exactly.
func (f *Flow) State() FlowState {
	s := FlowState{Flow: *f, CwndState: f.TCP.Cwnd.State()}
	s.Flow.TCP.CwndHist = cloneHist(f.TCP.CwndHist)
	s.Flow.TCP.BackoffHist = cloneHist(f.TCP.BackoffHist)
	s.Flow.TCP.ByCC = cloneByCC(f.TCP.ByCC)
	return s
}

// Restore reconstructs the flow bundle, replacing the lossy Cwnd summary
// with the exact accumulator state.
func (s *FlowState) Restore() *Flow {
	f := s.Flow
	f.TCP.Cwnd = RestoreDist(s.CwndState)
	f.TCP.CwndHist = cloneHist(s.Flow.TCP.CwndHist)
	f.TCP.BackoffHist = cloneHist(s.Flow.TCP.BackoffHist)
	f.TCP.ByCC = cloneByCC(s.Flow.TCP.ByCC)
	return &f
}

// Validate checks a state that arrived from another process before it is
// restored and merged: every histogram has the shape NewTCP builds (Merge
// panics on mismatched shapes), no bucket count is negative, and the cwnd
// accumulator has a non-negative sample count and finite moments.
func (s *FlowState) Validate() error {
	if err := checkHist("cwnd_hist", &s.TCP.CwndHist, cwndBounds); err != nil {
		return fmt.Errorf("telemetry: tcp.%w", err)
	}
	if err := checkHist("backoff_hist", &s.TCP.BackoffHist, backoffBounds); err != nil {
		return fmt.Errorf("telemetry: tcp.%w", err)
	}
	for name, cc := range s.TCP.ByCC {
		if cc == nil {
			return fmt.Errorf("telemetry: tcp.by_cc[%q] is null", name)
		}
		if err := checkHist("cwnd_hist", &cc.CwndHist, cwndBounds); err != nil {
			return fmt.Errorf("telemetry: tcp.by_cc[%q].%w", name, err)
		}
	}
	c := s.CwndState
	if c.N < 0 {
		return fmt.Errorf("telemetry: cwnd_state.n %d is negative", c.N)
	}
	for _, v := range [...]float64{c.Mean, c.M2, c.Min, c.Max, c.Sum} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("telemetry: cwnd_state has a non-finite moment %v", v)
		}
	}
	return nil
}

// checkHist returns an error unless h has exactly the given bounds, one
// count per bucket plus overflow, and no negative count. The error starts
// with name, so callers prefix it with the histogram's path.
func checkHist(name string, h *Hist, bounds []float64) error {
	if !slices.Equal(h.Bounds, bounds) || len(h.Counts) != len(bounds)+1 {
		return fmt.Errorf("%s has %d bounds and %d counts, want bounds %v and %d counts",
			name, len(h.Bounds), len(h.Counts), bounds, len(bounds)+1)
	}
	for i, n := range h.Counts {
		if n < 0 {
			return fmt.Errorf("%s bucket %d count %d is negative", name, i, n)
		}
	}
	return nil
}

// Campaign aggregates Flow bundles into campaign totals. AddFlow is safe
// for concurrent use, but bit-identical float aggregates (the Dist merges)
// additionally require a fixed merge order — dataset.RunCampaign merges in
// flow order after its parallel phase, which both hsr and stationary
// campaigns go through, so reports are reproducible at any parallelism.
type Campaign struct {
	mu sync.Mutex

	FlowCount int64   `json:"flows"`
	Kernel    Kernel  `json:"kernel"`
	TCP       TCP     `json:"tcp"`
	Net       Net     `json:"net"`
	Channel   Channel `json:"channel"`
	Faults    Faults  `json:"faults"`
	// WallNS sums per-flow host wall time (resource metric, not
	// reproducible; flows running in parallel each contribute fully).
	WallNS int64 `json:"wall_ns"`
}

// NewCampaign returns an empty campaign collector.
func NewCampaign() *Campaign { return &Campaign{} }

// AddFlow merges one flow's telemetry into the campaign totals.
func (c *Campaign) AddFlow(f *Flow) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.FlowCount++
	c.Kernel.Merge(&f.Kernel)
	c.TCP.Merge(&f.TCP)
	c.Net.Merge(&f.Net)
	c.Channel.Merge(&f.Channel)
	c.Faults.Merge(&f.Faults)
	c.WallNS += f.WallNS
}

// Counters returns a copy of the deterministic counter sections (everything
// except the wall-clock resource fields), for reproducibility checks.
func (c *Campaign) Counters() (int64, Kernel, TCP, Net, Faults) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.TCP
	t.CwndHist = cloneHist(c.TCP.CwndHist)
	t.BackoffHist = cloneHist(c.TCP.BackoffHist)
	t.ByCC = cloneByCC(c.TCP.ByCC)
	return c.FlowCount, c.Kernel, t, c.Net, c.Faults
}

// ChannelCounters returns a copy of the campaign's channel-timeline section
// (deterministic, like the Counters sections).
func (c *Campaign) ChannelCounters() Channel {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Channel
}

// Merge folds another campaign's totals into c, so a long-running service
// can aggregate per-job campaigns into a process-wide total. Like AddFlow,
// bit-identical float aggregates require a fixed merge order across calls.
func (c *Campaign) Merge(other *Campaign) {
	if other == nil || other == c {
		return
	}
	// Snapshot other under its own lock first: locking both at once could
	// deadlock if two campaigns ever merged into each other concurrently.
	snap := other.snapshot()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.FlowCount += snap.FlowCount
	c.Kernel.Merge(&snap.Kernel)
	c.TCP.Merge(&snap.TCP)
	c.Net.Merge(&snap.Net)
	c.Channel.Merge(&snap.Channel)
	c.Faults.Merge(&snap.Faults)
	c.WallNS += snap.WallNS
}

// campaignSnapshot is a self-contained copy of a campaign's aggregate
// fields (no lock, unlike Campaign itself).
type campaignSnapshot struct {
	FlowCount int64
	Kernel    Kernel
	TCP       TCP
	Net       Net
	Channel   Channel
	Faults    Faults
	WallNS    int64
}

// snapshot returns a locked, self-contained copy of the campaign's
// aggregate fields (histogram storage is deep-copied: a plain struct copy
// would share its count slices with the live campaign).
func (c *Campaign) snapshot() campaignSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := campaignSnapshot{
		FlowCount: c.FlowCount,
		Kernel:    c.Kernel,
		TCP:       c.TCP,
		Net:       c.Net,
		Channel:   c.Channel,
		Faults:    c.Faults,
		WallNS:    c.WallNS,
	}
	snap.TCP.CwndHist = cloneHist(c.TCP.CwndHist)
	snap.TCP.BackoffHist = cloneHist(c.TCP.BackoffHist)
	snap.TCP.ByCC = cloneByCC(c.TCP.ByCC)
	return snap
}

// cloneHist deep-copies a histogram's storage.
func cloneHist(h Hist) Hist {
	return Hist{
		Bounds: append([]float64(nil), h.Bounds...),
		Counts: append([]int64(nil), h.Counts...),
	}
}
