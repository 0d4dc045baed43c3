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
	// bursts layer onto the loss models, rate collapses scale the line rate,
	// delay spikes inflate latency. All fault randomness derives from Seed
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

// BuildPath constructs the emulated path (downlink data + uplink ACK) for a
// scenario on the given simulator, layering the scenario's fault schedule
// (if any) over the cellular channel and both links. It is exported so the
// MPTCP experiments can wire several paths into one simulation.
func BuildPath(simulator *sim.Simulator, sc Scenario) (*netem.Path, *cellular.Channel, error) {
	horizon := sc.FlowDuration + time.Minute // slack for in-flight cleanup
	ch, err := cellular.NewChannel(sc.Operator, sc.Trip, sc.TripOffset, horizon, sim.NewRand(sc.Seed, sim.StreamHandoff))
	if err != nil {
		return nil, nil, err
	}
	faulted := !sc.Faults.Empty()
	if faulted {
		ch.AddOutages(sc.Faults.StormOutages(sc.Seed))
	}
	op := sc.Operator
	// Each per-packet consumer gets its own timeline cursor (O(1) amortized
	// for the mostly monotone query series a flow produces).
	dataLoss := netem.LossModel(netem.NewTransitLossFunc(ch.DataLossCursor(), sim.NewRand(sc.Seed, sim.StreamDataLoss)))
	ackLoss := netem.LossModel(netem.NewTransitLossFunc(ch.AckLossCursor(), sim.NewRand(sc.Seed, sim.StreamAckLoss)))
	fwdDelay := netem.DelayModel(netem.NewSumDelay(
		netem.NewUniformDelay(op.DownDelay, op.Jitter, sim.NewRand(sc.Seed, sim.StreamDelay)),
		netem.DelayFunc{Fn: ch.DelayCursor()},
	))
	revDelay := netem.DelayModel(netem.NewSumDelay(
		netem.NewUniformDelay(op.UpDelay, op.Jitter, sim.NewRand(sc.Seed, sim.StreamDelay+1000)),
		netem.DelayFunc{Fn: ch.DelayCursor()},
	))
	var rateScale func(time.Duration) float64
	if faulted {
		var dataDrops, ackDrops *int64
		if sc.Telemetry != nil {
			dataDrops = &sc.Telemetry.Faults.DataDrops
			ackDrops = &sc.Telemetry.Faults.AckDrops
		}
		dataLoss = sc.Faults.WrapDataLossCounted(dataLoss, sim.NewRand(sc.Seed, sim.StreamFaultData), dataDrops)
		ackLoss = sc.Faults.WrapAckLossCounted(ackLoss, sim.NewRand(sc.Seed, sim.StreamFaultAck), ackDrops)
		fwdDelay = sc.Faults.WrapDelay(fwdDelay)
		revDelay = sc.Faults.WrapDelay(revDelay)
		rateScale = sc.Faults.RateScale
	}
	fwd := netem.NewLink(simulator, netem.LinkConfig{
		Rate:      op.DownlinkRate,
		RateScale: rateScale,
		MaxQueue:  op.QueuePackets,
		Delay:     fwdDelay,
		Loss:      dataLoss,
	})
	rev := netem.NewLink(simulator, netem.LinkConfig{
		Rate:      op.UplinkRate,
		RateScale: rateScale,
		MaxQueue:  op.QueuePackets,
		Delay:     revDelay,
		Loss:      ackLoss,
	})
	return netem.NewPath(fwd, rev), ch, nil
}

// BuildSharedCell creates the shared air-interface capacity stage of one
// cell: a downlink and an uplink that only model line rate and queueing.
// Several subflows of the same phone chained through these stages compete
// for the same radio capacity (used by the MPTCP duplex experiments).
func BuildSharedCell(simulator *sim.Simulator, op cellular.Operator) (down, up *netem.Link) {
	down = netem.NewLink(simulator, netem.LinkConfig{
		Rate: op.DownlinkRate, MaxQueue: op.QueuePackets, Delay: netem.FixedDelay(0),
	})
	up = netem.NewLink(simulator, netem.LinkConfig{
		Rate: op.UplinkRate, MaxQueue: op.QueuePackets, Delay: netem.FixedDelay(0),
	})
	return down, up
}

// BuildSubflowPath builds a per-subflow path whose loss and delay are
// independent (own cellular channel, own seed) but whose capacity is the
// shared cell stage: packets traverse the subflow's channel link first
// (synchronous loss verdict, so traces stay exact) and then queue on the
// shared air interface.
func BuildSubflowPath(simulator *sim.Simulator, sc Scenario, sharedDown, sharedUp *netem.Link) (*netem.Path, error) {
	horizon := sc.FlowDuration + time.Minute
	ch, err := cellular.NewChannel(sc.Operator, sc.Trip, sc.TripOffset, horizon, sim.NewRand(sc.Seed, sim.StreamHandoff))
	if err != nil {
		return nil, err
	}
	faulted := !sc.Faults.Empty()
	if faulted {
		ch.AddOutages(sc.Faults.StormOutages(sc.Seed))
	}
	op := sc.Operator
	dataLoss := netem.LossModel(netem.NewTransitLossFunc(ch.DataLossCursor(), sim.NewRand(sc.Seed, sim.StreamDataLoss)))
	ackLoss := netem.LossModel(netem.NewTransitLossFunc(ch.AckLossCursor(), sim.NewRand(sc.Seed, sim.StreamAckLoss)))
	fwdDelay := netem.DelayModel(netem.NewSumDelay(
		netem.NewUniformDelay(op.DownDelay, op.Jitter, sim.NewRand(sc.Seed, sim.StreamDelay)),
		netem.DelayFunc{Fn: ch.DelayCursor()},
	))
	revDelay := netem.DelayModel(netem.NewSumDelay(
		netem.NewUniformDelay(op.UpDelay, op.Jitter, sim.NewRand(sc.Seed, sim.StreamDelay+1000)),
		netem.DelayFunc{Fn: ch.DelayCursor()},
	))
	if faulted {
		dataLoss = sc.Faults.WrapDataLoss(dataLoss, sim.NewRand(sc.Seed, sim.StreamFaultData))
		ackLoss = sc.Faults.WrapAckLoss(ackLoss, sim.NewRand(sc.Seed, sim.StreamFaultAck))
		fwdDelay = sc.Faults.WrapDelay(fwdDelay)
		revDelay = sc.Faults.WrapDelay(revDelay)
	}
	fwd := netem.NewLink(simulator, netem.LinkConfig{Delay: fwdDelay, Loss: dataLoss})
	rev := netem.NewLink(simulator, netem.LinkConfig{Delay: revDelay, Loss: ackLoss})
	return netem.NewPath(
		netem.NewChain(fwd, sharedDown),
		netem.NewChain(rev, sharedUp),
	), nil
}

// simEventBudgetPerSecond is the kernel event budget granted per simulated
// second (plus a minute of slack). Real flows execute a few thousand events
// per simulated second; two million leaves three orders of magnitude of
// headroom while still catching a pathological schedule that spins at
// constant virtual time.
const simEventBudgetPerSecond = 2_000_000

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
// simulations are bit-identical. The kernel runs under an event budget so a
// runaway schedule fails loudly instead of hanging the campaign.
func runScenario(sc Scenario, rec trace.Recorder) (tcp.Stats, error) {
	if err := sc.Validate(); err != nil {
		return tcp.Stats{}, err
	}
	tel := sc.Telemetry
	var wallStart time.Time
	if tel != nil {
		wallStart = time.Now()
	}
	simulator := sim.New()
	budget := int64((sc.FlowDuration+time.Minute)/time.Second) * simEventBudgetPerSecond
	simulator.SetBudget(sim.Budget{MaxEvents: budget})
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
	simulator.RunUntil(sc.FlowDuration)
	if simulator.Exhausted() {
		return tcp.Stats{}, fmt.Errorf("dataset: flow %s exhausted its %d-event kernel budget at t=%v (runaway schedule?)",
			sc.ID, budget, simulator.Now())
	}
	if tel != nil {
		harvestFlow(tel, sc, simulator, path, ch, conn, budget, wallStart)
	}
	return conn.Stats(), nil
}

// RunFlow simulates one scenario end to end and returns its complete packet
// trace and the endpoint counters. Use it when the events themselves are the
// product (CSV export, tracegen, figure rendering); campaigns that only need
// metrics should use RunFlowMetrics, which never materializes the event
// list.
func RunFlow(sc Scenario) (*trace.FlowTrace, tcp.Stats, error) {
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
	return ft, st, nil
}

// RunFlowMetrics simulates one scenario and reduces it to FlowMetrics
// online: packet events stream into a pooled incremental analyzer as the
// simulation produces them, so peak memory is independent of flow length
// and the analyzer's tables are reused across flows. The metrics are
// identical to analyzing the materialized trace of the same scenario.
func RunFlowMetrics(sc Scenario) (*analysis.FlowMetrics, tcp.Stats, error) {
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
func harvestFlow(tel *telemetry.Flow, sc Scenario, simulator *sim.Simulator, path *netem.Path, ch *cellular.Channel, conn *tcp.Conn, budget int64, wallStart time.Time) {
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
	tel.WallNS = time.Since(wallStart).Nanoseconds()
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

// AnalyzeFlow runs a scenario and reduces it to metrics through the
// streaming pipeline (campaigns over hundreds of flows would otherwise hold
// gigabytes of events).
func AnalyzeFlow(sc Scenario) (*analysis.FlowMetrics, error) {
	m, _, err := RunFlowMetrics(sc)
	return m, err
}

// RunOptions selects how a flow's metrics are produced: through the result
// cache (skip simulation on a hit, populate on a miss) or by simulating.
type RunOptions struct {
	// Cache, when non-nil, is consulted before simulating and populated
	// after; nil always simulates.
	Cache *FlowCache
}

// AnalyzeFlowOpts is AnalyzeFlow with pipeline options. Cache hits skip the
// simulation; the scenario's Telemetry bundle (if any) is then left
// untouched, since no simulation work happened (the cache's own counters
// record the hit).
func AnalyzeFlowOpts(opt RunOptions, sc Scenario) (*analysis.FlowMetrics, error) {
	if opt.Cache != nil {
		// GetOrCompute additionally deduplicates concurrent misses of the
		// same key (e.g. identical jobs racing in a server): the flow
		// simulates once and every caller shares the result.
		ent, _, err := opt.Cache.GetOrCompute(sc, func() (CachedFlow, error) {
			m, st, err := RunFlowMetrics(sc)
			if err != nil {
				return CachedFlow{}, err
			}
			return CachedFlow{Metrics: m, Stats: st}, nil
		})
		if err != nil {
			return nil, err
		}
		return ent.Metrics, nil
	}
	m, _, err := RunFlowMetrics(sc)
	if err != nil {
		return nil, err
	}
	return m, nil
}
