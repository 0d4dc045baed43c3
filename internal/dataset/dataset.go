// Package dataset assembles complete measurement scenarios — a railway
// trip, a carrier's cellular channel, the emulated links and a TCP flow —
// and runs whole measurement campaigns shaped like the paper's Table I
// dataset (255 flows across China Mobile LTE, China Unicom 3G and China
// Telecom 3G, January and October 2015), plus the stationary baseline the
// paper compares against.
//
// Real HSR rides obviously cannot be re-run; the campaign synthesizes the
// same structure (trips x carriers x flows) with deterministic per-flow
// seeds so every experiment is reproducible bit for bit.
package dataset

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/cellular"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/railway"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Scenario is the full environment of one simulated flow.
type Scenario struct {
	ID           string
	Operator     cellular.Operator
	Trip         railway.Trip
	TripOffset   time.Duration // where in the trip the flow starts
	FlowDuration time.Duration
	Seed         int64
	TCP          tcp.Config
	Scenario     string // "hsr" or "stationary" (trace metadata)
	// Faults, when non-empty, injects the schedule's fault episodes into the
	// flow's path: storms become extra channel outages, blackouts and ACK
	// bursts layer onto the loss models, rate collapses scale the line rate
	// (not on a shared cell: see BuildSubflowPath), delay spikes inflate
	// latency. All fault randomness derives from Seed
	// on dedicated streams, so faulted flows stay bit-for-bit reproducible.
	Faults *faults.Schedule
	// Telemetry, when non-nil, collects the flow's full metrics bundle
	// (kernel, endpoint, link and fault counters). Attaching it never
	// changes the packet trace: live instrumentation is nil-gated integer
	// increments and everything else is harvested after the run.
	Telemetry *telemetry.Flow
	// FlightRecorder, when non-nil, additionally records the flow's events
	// into a bounded ring (state transitions only by default) that can be
	// dumped as a JSONL trace after the run.
	FlightRecorder *telemetry.FlightRecorder
}

// Validate checks the scenario.
func (sc Scenario) Validate() error {
	if sc.FlowDuration <= 0 {
		return fmt.Errorf("dataset: flow duration %v must be positive", sc.FlowDuration)
	}
	if sc.TripOffset < 0 {
		return fmt.Errorf("dataset: trip offset %v must be non-negative", sc.TripOffset)
	}
	if err := sc.Operator.Validate(); err != nil {
		return err
	}
	if err := sc.Faults.Validate(); err != nil {
		return err
	}
	return sc.TCP.Validate()
}

// privateStage builds the per-flow half of a scenario's path: its cellular
// channel (plus the schedule's storm outages), transit loss and
// uniform+channel delay on the flow's own RNG streams, and the schedule's
// loss and delay wrappers. It returns the two directions' link
// configurations without rate or queue; callers add those (BuildPath) or
// chain the links into a shared cell (BuildSubflowPath).
func privateStage(sc Scenario) (fwd, rev netem.LinkConfig, ch *cellular.Channel, err error) {
	horizon := sc.FlowDuration + time.Minute // slack for in-flight cleanup
	ch, err = cellular.NewChannel(sc.Operator, sc.Trip, sc.TripOffset, horizon, sim.NewRand(sc.Seed, sim.StreamHandoff))
	if err != nil {
		return fwd, rev, nil, err
	}
	faulted := !sc.Faults.Empty()
	if faulted {
		ch.AddOutages(sc.Faults.StormOutages(sc.Seed))
	}
	op := sc.Operator
	// Each per-packet consumer gets its own timeline cursor (O(1) amortized
	// for the mostly monotone query series a flow produces).
	fwd = netem.LinkConfig{
		Delay: netem.NewSumDelay(
			netem.NewUniformDelay(op.DownDelay, op.Jitter, sim.NewRand(sc.Seed, sim.StreamDelay)),
			netem.DelayFunc{Fn: ch.DelayCursor()},
		),
		Loss: netem.NewTransitLossFunc(ch.DataLossCursor(), sim.NewRand(sc.Seed, sim.StreamDataLoss)),
	}
	rev = netem.LinkConfig{
		Delay: netem.NewSumDelay(
			netem.NewUniformDelay(op.UpDelay, op.Jitter, sim.NewRand(sc.Seed, sim.StreamDelay+1000)),
			netem.DelayFunc{Fn: ch.DelayCursor()},
		),
		Loss: netem.NewTransitLossFunc(ch.AckLossCursor(), sim.NewRand(sc.Seed, sim.StreamAckLoss)),
	}
	if !faulted {
		return fwd, rev, ch, nil
	}
	var dataDrops, ackDrops *int64
	if sc.Telemetry != nil {
		dataDrops = &sc.Telemetry.Faults.DataDrops
		ackDrops = &sc.Telemetry.Faults.AckDrops
	}
	fwd.Loss = sc.Faults.WrapDataLossCounted(fwd.Loss, sim.NewRand(sc.Seed, sim.StreamFaultData), dataDrops)
	rev.Loss = sc.Faults.WrapAckLossCounted(rev.Loss, sim.NewRand(sc.Seed, sim.StreamFaultAck), ackDrops)
	fwd.Delay = sc.Faults.WrapDelay(fwd.Delay)
	rev.Delay = sc.Faults.WrapDelay(rev.Delay)
	return fwd, rev, ch, nil
}

// BuildPath constructs the emulated path (downlink data + uplink ACK) for a
// scenario on the given simulator: the flow's private stage with the
// operator's line rates and queue, and the schedule's rate collapses (if
// any). It is exported so the MPTCP experiments can wire several paths into
// one simulation.
func BuildPath(simulator *sim.Simulator, sc Scenario) (*netem.Path, *cellular.Channel, error) {
	fwd, rev, ch, err := privateStage(sc)
	if err != nil {
		return nil, nil, err
	}
	op := sc.Operator
	fwd.Rate, fwd.MaxQueue = op.DownlinkRate, op.QueuePackets
	rev.Rate, rev.MaxQueue = op.UplinkRate, op.QueuePackets
	if !sc.Faults.Empty() {
		fwd.RateScale, rev.RateScale = sc.Faults.RateScale, sc.Faults.RateScale
	}
	return netem.NewPath(netem.NewLink(simulator, fwd), netem.NewLink(simulator, rev)), ch, nil
}

// BuildSubflowPath builds a per-subflow path whose loss and delay are
// independent (own cellular channel, own seed) but whose capacity is a
// shared cell (a netem.Bottleneck's Down and Up links): packets traverse the
// subflow's channel link first (synchronous loss verdict, so traces stay
// exact) and then queue on the shared air interface. The private links have
// no rate, so the schedule's rate collapses do not reach a subflow.
func BuildSubflowPath(simulator *sim.Simulator, sc Scenario, sharedDown, sharedUp *netem.Link) (*netem.Path, error) {
	fwd, rev, _, err := privateStage(sc)
	if err != nil {
		return nil, err
	}
	return netem.NewPath(
		netem.NewChain(netem.NewLink(simulator, fwd), sharedDown),
		netem.NewChain(netem.NewLink(simulator, rev), sharedUp),
	), nil
}

// simEventBudgetPerSecond is the kernel event budget granted per simulated
// second (plus a minute of slack) and flow. Real flows execute a few
// thousand events per simulated second; two million leaves three orders of
// magnitude of headroom while still catching a pathological schedule that
// spins at constant virtual time.
const simEventBudgetPerSecond = 2_000_000

// RunBudgeted runs simulator to horizon under the kernel event budget of
// flows concurrent flows, simEventBudgetPerSecond x (horizon + 1 min) x
// flows, and returns the budget it installed. Every production simulation
// runs through it, so a runaway schedule fails loudly instead of hanging
// the campaign: on exhaustion the error names id, the flow (or, for several
// flows, the group) that ran.
func RunBudgeted(simulator *sim.Simulator, id string, horizon time.Duration, flows int) (int64, error) {
	if flows < 1 {
		return 0, fmt.Errorf("dataset: %s: budget for %d flows, need at least one", id, flows)
	}
	budget := int64((horizon+time.Minute)/time.Second) * simEventBudgetPerSecond * int64(flows)
	simulator.SetBudget(sim.Budget{MaxEvents: budget})
	simulator.RunUntil(horizon)
	if !simulator.Exhausted() {
		return budget, nil
	}
	what := "flow " + id
	if flows > 1 {
		what = fmt.Sprintf("%d-flow group %s", flows, id)
	}
	return budget, fmt.Errorf("dataset: %s exhausted its %d-event kernel budget at t=%v (runaway schedule?)",
		what, budget, simulator.Now())
}

// FlowMeta returns the trace metadata describing the scenario's flow.
func (sc Scenario) FlowMeta() trace.FlowMeta {
	return trace.FlowMeta{
		ID:          sc.ID,
		Operator:    sc.Operator.Name,
		Tech:        sc.Operator.Tech.String(),
		Scenario:    sc.Scenario,
		Seed:        sc.Seed,
		MSS:         sc.TCP.MSS,
		DelayedAckB: sc.TCP.DelayedAckB,
		WindowLimit: sc.TCP.WindowLimit,
		Duration:    sc.FlowDuration,
	}
}

// runScenario simulates one scenario end to end, streaming every packet
// event into rec, and returns the endpoint counters. This is the single
// simulation core under both the materializing RunFlow and the streaming
// RunFlowMetrics: the sink is the only difference between the two, so their
// simulations are bit-identical.
func runScenario(sc Scenario, rec trace.Recorder) (tcp.Stats, error) {
	if err := sc.Validate(); err != nil {
		return tcp.Stats{}, err
	}
	tel := sc.Telemetry
	simulator := sim.New()
	if tel != nil {
		simulator.SetTelemetry(&tel.Kernel)
	}
	path, ch, err := BuildPath(simulator, sc)
	if err != nil {
		return tcp.Stats{}, err
	}
	if sc.FlightRecorder != nil {
		rec = trace.Tee{rec, sc.FlightRecorder}
	}
	conn, err := tcp.New(simulator, path, sc.TCP, rec)
	if err != nil {
		return tcp.Stats{}, err
	}
	if tel != nil {
		conn.SetTelemetry(&tel.TCP)
	}
	if err := conn.Start(sc.FlowDuration); err != nil {
		return tcp.Stats{}, err
	}
	budget, err := RunBudgeted(simulator, sc.ID, sc.FlowDuration, 1)
	if err != nil {
		return tcp.Stats{}, err
	}
	if tel != nil {
		harvestFlow(tel, sc, simulator, path, ch, conn, budget)
	}
	return conn.Stats(), nil
}

// RunFlow simulates one scenario end to end and returns its complete packet
// trace and the endpoint counters. Use it when the events themselves are the
// product (CSV export, tracegen, figure rendering); campaigns that only need
// metrics should use RunFlowMetrics, which never materializes the event
// list.
func RunFlow(sc Scenario) (*trace.FlowTrace, tcp.Stats, error) {
	start := time.Now()
	ft := &trace.FlowTrace{Meta: sc.FlowMeta()}
	// A materialized flow produces on the order of a thousand events per
	// flow-second (four per delivered packet, operator-dependent); reserving
	// that up front replaces log2(n) append doublings — each a full copy of
	// a multi-megabyte list — with at most one growth.
	ft.Grow(int(sc.FlowDuration/time.Second+1) * 1200)
	st, err := runScenario(sc, ft)
	if err != nil {
		return nil, tcp.Stats{}, err
	}
	stampWall(sc.Telemetry, start)
	return ft, st, nil
}

// RunFlowMetrics simulates one scenario and reduces it to FlowMetrics
// online: packet events stream into a pooled incremental analyzer as the
// simulation produces them, so peak memory is independent of flow length
// and the analyzer's tables are reused across flows. The metrics are
// identical to analyzing the materialized trace of the same scenario.
func RunFlowMetrics(sc Scenario) (*analysis.FlowMetrics, tcp.Stats, error) {
	start := time.Now()
	m, st, err := analyzeScenario(sc)
	if err != nil {
		return nil, tcp.Stats{}, err
	}
	stampWall(sc.Telemetry, start)
	return m, st, nil
}

// stampWall records the host wall time since start on a flow's telemetry
// bundle, if it has one. Only the public single-flow calls stamp it: a
// campaign's flows carry their wall time on their outcomes instead, so the
// telemetry they store stays a pure function of the scenario.
func stampWall(tel *telemetry.Flow, start time.Time) {
	if tel != nil {
		tel.WallNS = time.Since(start).Nanoseconds()
	}
}

// analyzeScenario is RunFlowMetrics without the wall-time stamp.
func analyzeScenario(sc Scenario) (*analysis.FlowMetrics, tcp.Stats, error) {
	inc := analysis.AcquireIncremental(sc.FlowMeta())
	defer inc.Release()
	st, err := runScenario(sc, inc)
	if err != nil {
		return nil, tcp.Stats{}, err
	}
	m, err := inc.Finish()
	if err != nil {
		return nil, tcp.Stats{}, err
	}
	return m, st, nil
}

// harvestFlow fills the telemetry bundle's end-of-run sections: kernel time
// and budget, link counters (read once from the links instead of per-packet
// instrumentation), fault-schedule activity, and the endpoint flush.
func harvestFlow(tel *telemetry.Flow, sc Scenario, simulator *sim.Simulator, path *netem.Path, ch *cellular.Channel, conn *tcp.Conn, budget int64) {
	tel.Kernel.VirtualNS = int64(simulator.Now())
	tel.Kernel.BudgetEvents = budget
	if l, ok := path.Forward.(*netem.Link); ok {
		harvestLink(&tel.Net.Data, l.Stats())
	}
	if l, ok := path.Reverse.(*netem.Link); ok {
		harvestLink(&tel.Net.Ack, l.Stats())
	}
	if ch != nil {
		st := ch.Stats()
		tel.Channel.Compiles += st.Compiles
		tel.Channel.Segments += st.Segments
		tel.Channel.CursorQueries += st.CursorQueries
		tel.Channel.CursorAdvances += st.CursorAdvances
		tel.Channel.CursorFallbacks += st.CursorFallbacks
	}
	if !sc.Faults.Empty() {
		tel.Faults.Schedules++
		episodes, storms := sc.Faults.Counts()
		tel.Faults.Episodes += int64(episodes)
		tel.Faults.StormOutages += int64(storms)
	}
	conn.FlushTelemetry()
}

// harvestLink copies one direction's netem.LinkStats into telemetry form.
func harvestLink(dst *telemetry.LinkCounters, st netem.LinkStats) {
	dst.Offered += int64(st.Offered)
	dst.Delivered += int64(st.Delivered)
	dst.ChannelDrops += int64(st.ChannelDrops)
	dst.QueueDrops += int64(st.QueueDrops)
	if pb := int64(st.PeakBacklog); pb > dst.PeakBacklog {
		dst.PeakBacklog = pb
	}
	dst.VectorBursts += int64(st.VectorBursts)
	dst.VectorPackets += int64(st.VectorPackets)
}
